package main

import "sort"

// The benchmark's hosts are small virtual machines whose hypervisor
// hands CPU time to other guests in bursts; a second in which a fifth of
// the machine was stolen doubles the latencies, and that is the
// neighbours' doing, not the program's. A live load is therefore cut
// into seconds, each with the steal share /proc/stat reported for it,
// and the metrics are medians over the quiet ones. (Batch programs have
// their own rule, see batchMetrics.)
const (
	// quietSteal is the steal share up to which an observation counts
	// as undisturbed.
	quietSteal = 0.02
	// minQuiet is how many observations a metric is taken over at
	// least: when fewer are quiet, the least disturbed ones make up the
	// number, so a run on a busy host still reports.
	minQuiet = 3
)

// quietest returns the indices of the observations to measure over, in
// their original order.
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && steal[idx[n]] <= quietSteal {
		n++
	}
	n = min(max(n, minQuiet), len(idx))
	idx = idx[:n]
	sort.Ints(idx)
	return idx
}
