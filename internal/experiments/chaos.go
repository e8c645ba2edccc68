// Chaos experiment: the standard workload run twice with the same seed
// — once clean, once under a fault plan — and diffed. The paper's
// deployment depended on DNS, a blocklist, a scanner backend and a
// smarthost (§4, §5.1); this driver measures how the hardened filter
// path shifts classification when those dependencies fail.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/faults"
	"repro/internal/simnet"
)

// ChaosSummary captures the classification-relevant counters of one run.
type ChaosSummary struct {
	Incoming   int64
	SpoolWhite int64
	SpoolBlack int64
	SpoolGray  int64

	FilterDropped  map[string]int64
	FilterDegraded map[string]int64

	MTADegradedAccept int64
	MTADegradedDrop   int64

	ChallengesSent int64
	// ChallengeOutcomes counts challenge delivery statuses by label
	// (delivered, expired, bounce variants).
	ChallengeOutcomes map[string]int64

	Delivered map[string]int64 // inbox deliveries by via

	// FaultCounts is the injector's per-target injection tally (empty on
	// the clean run).
	FaultCounts map[string]int64
	// StaleAnswers counts RBL queries served from injected stale data:
	// the "rbl:<name>/stale" entries of FaultCounts, summed.
	StaleAnswers int64
}

// ChaosReport is the outcome of the chaos experiment.
type ChaosReport struct {
	Plan    *faults.Plan
	Base    ChaosSummary
	Faulted ChaosSummary
}

// summarizeRun reduces a completed run to a ChaosSummary.
func summarizeRun(r *Run) ChaosSummary {
	agg := r.Aggregate().All
	s := ChaosSummary{
		Incoming:          agg.MTAIncoming,
		SpoolWhite:        agg.SpoolWhite,
		SpoolBlack:        agg.SpoolBlack,
		SpoolGray:         agg.SpoolGray,
		FilterDropped:     agg.FilterDropped,
		FilterDegraded:    agg.FilterDegraded,
		MTADegradedAccept: agg.MTADegradedAccept,
		MTADegradedDrop:   agg.MTADegradedDrop,
		ChallengesSent:    agg.ChallengesSent,
		ChallengeOutcomes: make(map[string]int64),
		Delivered:         make(map[string]int64),
		FaultCounts:       make(map[string]int64),
	}
	for via, n := range agg.Delivered {
		s.Delivered[via.String()] += n
	}
	ds := r.Fleet.Net.DeliveryStats()
	for st, n := range ds.ByStatus {
		if st == simnet.StatusPending {
			continue
		}
		s.ChallengeOutcomes[st.String()] += int64(n)
	}
	if r.Fleet.Injector != nil {
		s.FaultCounts = r.Fleet.Injector.Counts()
	}
	for k, n := range s.FaultCounts {
		if strings.HasPrefix(k, "rbl:") && strings.HasSuffix(k, "/"+string(faults.KindStale)) {
			s.StaleAnswers += n
		}
	}
	return s
}

// Chaos runs cfg twice — clean and under plan — and reports the shift.
// Both runs share cfg.Seed, so every difference is attributable to the
// injected faults.
func Chaos(cfg RunConfig, plan *faults.Plan) *ChaosReport {
	if plan == nil {
		plan = faults.DefaultChaosPlan()
	}
	base := cfg
	base.FaultPlan = nil
	faulted := cfg
	faulted.FaultPlan = plan
	return &ChaosReport{
		Plan:    plan,
		Base:    summarizeRun(NewRun(base)),
		Faulted: summarizeRun(NewRun(faulted)),
	}
}

// Render formats the report as a deterministic fixed-width table of
// base vs faulted counters with deltas.
func (r *ChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos run under fault plan %q\n", r.Plan.Name)
	for _, line := range strings.Split(strings.TrimRight(r.Plan.Describe(), "\n"), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-34s %12s %12s %12s\n", "counter", "base", "faulted", "delta")
	row := func(name string, base, faulted int64) {
		fmt.Fprintf(&b, "%-34s %12d %12d %+12d\n", name, base, faulted, faulted-base)
	}
	row("mta-incoming", r.Base.Incoming, r.Faulted.Incoming)
	row("spool-white", r.Base.SpoolWhite, r.Faulted.SpoolWhite)
	row("spool-black", r.Base.SpoolBlack, r.Faulted.SpoolBlack)
	row("spool-gray", r.Base.SpoolGray, r.Faulted.SpoolGray)
	for _, k := range unionKeys(r.Base.FilterDropped, r.Faulted.FilterDropped) {
		row("filter-drop/"+k, r.Base.FilterDropped[k], r.Faulted.FilterDropped[k])
	}
	for _, k := range unionKeys(r.Base.FilterDegraded, r.Faulted.FilterDegraded) {
		row("filter-degraded/"+k, r.Base.FilterDegraded[k], r.Faulted.FilterDegraded[k])
	}
	row("mta-degraded-accept", r.Base.MTADegradedAccept, r.Faulted.MTADegradedAccept)
	row("mta-degraded-drop", r.Base.MTADegradedDrop, r.Faulted.MTADegradedDrop)
	row("challenges-sent", r.Base.ChallengesSent, r.Faulted.ChallengesSent)
	for _, k := range unionKeys(r.Base.ChallengeOutcomes, r.Faulted.ChallengeOutcomes) {
		row("challenge/"+k, r.Base.ChallengeOutcomes[k], r.Faulted.ChallengeOutcomes[k])
	}
	for _, k := range unionKeys(r.Base.Delivered, r.Faulted.Delivered) {
		row("delivered/"+k, r.Base.Delivered[k], r.Faulted.Delivered[k])
	}
	row("rbl-stale-answers", r.Base.StaleAnswers, r.Faulted.StaleAnswers)
	if len(r.Faulted.FaultCounts) > 0 {
		b.WriteString("\ninjected faults (target/kind):\n")
		for _, k := range sortedKeys(r.Faulted.FaultCounts) {
			fmt.Fprintf(&b, "  %-32s %12d\n", k, r.Faulted.FaultCounts[k])
		}
	}
	return b.String()
}

// unionKeys returns the sorted union of both maps' keys.
func unionKeys(a, b map[string]int64) []string {
	keys := append(sortedKeys(a), sortedKeys(b)...)
	slices.Sort(keys)
	return slices.Compact(keys)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
