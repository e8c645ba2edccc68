package loadgen

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Load describes one measured phase against a listening server.
type Load struct {
	Addr string
	Spec Spec
	Seed int64
	// Bodies is the pool the streams draw from (NewBodies(Spec, Seed)).
	Bodies *Bodies
	// Conns is the number of concurrent connections, one goroutine and
	// one mix stream each.
	Conns int
	// Duration is how long transactions are started.
	Duration time.Duration
	// Rate, when > 0, makes the phase an open loop: transaction i is due
	// at i/Rate seconds whatever the server does, dealt round-robin over
	// the connections, and one that has to wait for its connection is
	// timed from when it was due. 0 is a closed loop: each connection
	// sends its next transaction as soon as the previous one is answered.
	Rate float64
	// ReconnectEvery is passed to each Client.
	ReconnectEvery int
	// StreamBase offsets the stream numbers, so set-up and load phases of
	// one run never reuse a sender name.
	StreamBase int
}

// Sample is one completed transaction.
type Sample struct {
	// End is when the final reply was read, as an offset from the start
	// of the phase.
	End time.Duration
	Lat time.Duration
}

// Outcome is what a phase observed.
type Outcome struct {
	Elapsed time.Duration
	// Tx counts transactions attempted; Failed those with a reply other
	// than the one their class implies, or an I/O error.
	Tx, Failed int
	// Acked counts correctly answered transactions per class.
	Acked [NumClasses]int
	// Samples holds every correctly answered transaction.
	Samples []Sample
	// Late counts open-loop transactions that started more than a
	// millisecond after they were due, for whatever reason. Lag sums the
	// lateness that was the generator's own — the timer waking it late
	// while its connection was free — which is left out of the latencies.
	Late int
	Lag  time.Duration
	// Dials counts connections opened.
	Dials    int
	FirstErr string
}

// lateAfter is how far past its due time an open-loop transaction may
// start before the generator counts itself late.
const lateAfter = time.Millisecond

// Run drives the phase to completion and merges the connections'
// observations.
func (l Load) Run() Outcome {
	parts := make([]Outcome, l.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < l.Conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			parts[k] = l.runConn(k, start)
		}(k)
	}
	wg.Wait()
	out := Outcome{Elapsed: time.Since(start)}
	for _, p := range parts {
		out.Tx += p.Tx
		out.Failed += p.Failed
		out.Late += p.Late
		out.Lag += p.Lag
		out.Dials += p.Dials
		for c := range out.Acked {
			out.Acked[c] += p.Acked[c]
		}
		out.Samples = append(out.Samples, p.Samples...)
		if out.FirstErr == "" {
			out.FirstErr = p.FirstErr
		}
	}
	return out
}

func (l Load) runConn(k int, start time.Time) Outcome {
	var out Outcome
	out.Samples = make([]Sample, 0, 1<<16)
	mix := NewMix(l.Spec, l.Bodies, l.Seed, l.StreamBase+k)
	c := &Client{Addr: l.Addr, ReconnectEvery: l.ReconnectEvery}
	defer c.Close()
	fail := func(msg string) {
		out.Failed++
		if out.FirstErr == "" {
			out.FirstErr = msg
		}
	}
	broken := 0        // consecutive I/O errors: a dead server must not spin the loop
	var free time.Time // when this connection finished its previous transaction
	for i := k; broken < 20; i += l.Conns {
		var from time.Time
		if l.Rate > 0 {
			due := start.Add(time.Duration(float64(i) / l.Rate * float64(time.Second)))
			if due.Sub(start) >= l.Duration {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			// A transaction that is late because the connection was still
			// waiting for the server is timed from when it was due: the
			// stall is the server's and later transactions pay for it. One
			// that is late only because the timer woke this goroutine late
			// is timed from when it is sent, and the lag is reported apart.
			from = time.Now()
			lag := from.Sub(due)
			if free.After(due) {
				from = due
			} else {
				out.Lag += lag
			}
			if lag > lateAfter {
				out.Late++
			}
		} else if time.Since(start) >= l.Duration {
			break
		}
		tx := mix.Next()
		out.Tx++
		code, lat, err := c.Do(tx, from)
		free = time.Now()
		if err != nil {
			broken++
			fail(fmt.Sprintf("%s: %v", tx.Class, err))
			continue
		}
		broken = 0
		if code != tx.Class.Want() {
			fail(fmt.Sprintf("%s from <%s> to <%s>: reply %d, want %d", tx.Class, tx.From, tx.Rcpt, code, tx.Class.Want()))
			continue
		}
		out.Acked[tx.Class]++
		out.Samples = append(out.Samples, Sample{End: free.Sub(start), Lat: lat})
	}
	out.Dials = c.Dials
	return out
}

// Second is one row of a phase's per-second timeline: what the load
// generator saw complete in that second, and what the caller sampled
// from the host at its end.
type Second struct {
	Tx    int     `json:"tx"`
	P50Us float64 `json:"p50_us"`
	P90Us float64 `json:"p90_us"`
	P99Us float64 `json:"p99_us"`
	// RSSMB is the server's resident set and CPUMs the CPU time it used
	// during the second.
	RSSMB float64 `json:"rss_mb"`
	CPUMs float64 `json:"cpu_ms"`
	// Steal is the share of the machine's CPU time the hypervisor gave to
	// other guests during the second.
	Steal float64 `json:"steal"`
}

// Timeline buckets samples by the second in which they completed, so
// warm-up, GC pauses and fsync stalls show instead of being averaged
// away. The phase's last started transactions finish just after its
// duration and count towards its last second. host, when not nil,
// supplies RSSMB, CPUMs and Steal of second i.
func Timeline(samples []Sample, duration time.Duration, host []Second) []Second {
	n := int((duration + time.Second - 1) / time.Second)
	if n == 0 {
		return nil
	}
	perSec := make([][]float64, n)
	for _, s := range samples {
		i := min(int(s.End/time.Second), n-1)
		perSec[i] = append(perSec[i], float64(s.Lat)/float64(time.Microsecond))
	}
	out := make([]Second, n)
	for i, lats := range perSec {
		sort.Float64s(lats)
		if i < len(host) {
			out[i] = host[i]
		}
		out[i].Tx, out[i].P50Us, out[i].P90Us, out[i].P99Us = len(lats), Percentile(lats, 50), Percentile(lats, 90), Percentile(lats, 99)
	}
	return out
}
