// Surge experiment: the overload-control acceptance run. The same fleet
// is simulated at increasing campaign-burst intensities with an
// admission controller in front of every engine and injected
// per-message service latency above the AIMD target, so the controllers
// genuinely congest. The report measures what the fail-safe shed policy
// promises: shed rate grows with intensity, queue depth stays bounded,
// admission delay stays within the queue deadline, and not one piece of
// ham is lost — shed mail is tempfailed and delivered on retry.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/overload"
	"repro/internal/workload"
)

// SurgeIntensities are the burst multipliers the experiment sweeps,
// ending at the acceptance-criterion 10× burst.
var SurgeIntensities = []float64{1, 2, 5, 10}

// SurgeOverloadConfig is the controller configuration the surge runs
// use: a small limiter window so bursts congest at experiment scale,
// and a queue sized to make both queueing and queue-full shedding
// observable.
func SurgeOverloadConfig() *overload.Config {
	return &overload.Config{
		MinLimit:      2,
		MaxLimit:      64,
		InitialLimit:  8,
		TargetLatency: 250 * time.Millisecond,
		QueueCapacity: 32,
		QueueDeadline: 30 * time.Second,
	}
}

// SurgeLatencyPlan injects the per-message service latency: every
// admitted message holds its slot for 400ms of virtual time, above the
// 250ms AIMD target, so sustained bursts force multiplicative backoff.
func SurgeLatencyPlan() *faults.Plan {
	return &faults.Plan{
		Name: "surge-latency",
		Rules: []faults.Rule{
			{Target: "surge", Kind: faults.KindLatency, Latency: faults.Duration(400 * time.Millisecond)},
		},
	}
}

// SurgePoint is one intensity's measured outcome.
type SurgePoint struct {
	Intensity float64
	// Admitted and ShedEvents are fleet-wide admission outcomes;
	// ShedRate is ShedEvents / (Admitted + ShedEvents).
	Admitted   int64
	ShedEvents int64
	ShedRate   float64
	// ShedBy breaks shed events down by reason.
	ShedBy map[string]int64
	// MaxQueueDepth is the deepest any company's admission queue got
	// (bounded by the configured capacity).
	MaxQueueDepth int64
	// P99Delay is the 99th-percentile admission delay (histogram upper
	// bound; granted-immediately counts as zero).
	P99Delay time.Duration
	// Ham accounting: Shed ham must all be Recovered (re-admitted on
	// retry) or Outstanding (still on a retry timer at run end) —
	// Dropped must be zero.
	HamShed, HamRecovered, HamOutstanding, HamDropped int64
	// SpamDropped is burst spam that never retried its 451 — the load
	// the fail-safe policy sheds permanently without losing ham.
	SpamDropped int64
	Retries     int64
}

// SurgeReport is the outcome of the surge sweep.
type SurgeReport struct {
	Points []SurgePoint
}

// Surge sweeps SurgeIntensities over cfg: every run shares cfg.Seed,
// the same controller parameters (SurgeOverloadConfig) and the same
// injected service latency (SurgeLatencyPlan); only the burst intensity
// varies. The burst hits every company on day 1, hours 10–13.
func Surge(cfg RunConfig) *SurgeReport {
	rep := &SurgeReport{}
	for _, intensity := range SurgeIntensities {
		rep.Points = append(rep.Points, surgePoint(cfg, intensity))
	}
	return rep
}

// surgePoint runs one intensity and reduces it to a SurgePoint.
func surgePoint(cfg RunConfig, intensity float64) SurgePoint {
	c := cfg
	c.Overload = SurgeOverloadConfig()
	c.SurgePlan = SurgeLatencyPlan()
	c.SurgeBursts = []workload.SurgeBurst{
		{Day: 1, Hour: 10, Hours: 3, Intensity: intensity},
	}
	run := NewRun(c)
	st := run.Fleet.OverloadStats()

	p := SurgePoint{
		Intensity:      intensity,
		Admitted:       st.Ctl.Admitted(),
		ShedEvents:     st.Ctl.ShedTotal(),
		MaxQueueDepth:  int64(st.Ctl.MaxQueueDepth),
		P99Delay:       st.Ctl.DelayQuantile(0.99),
		ShedBy:         make(map[string]int64),
		HamShed:        st.HamShed,
		HamRecovered:   st.HamRecovered,
		HamOutstanding: st.HamOutstanding,
		HamDropped:     st.HamDropped,
		SpamDropped:    st.SpamDropped,
		Retries:        st.Retries,
	}
	for r, n := range st.Ctl.Shed {
		p.ShedBy[string(r)] = n
	}
	if total := p.Admitted + p.ShedEvents; total > 0 {
		p.ShedRate = float64(p.ShedEvents) / float64(total)
	}
	return p
}

// Render formats the sweep as a fixed-width table plus the ham-safety
// verdict line the acceptance criterion reads.
func (r *SurgeReport) Render() string {
	var b strings.Builder
	b.WriteString("Overload surge sweep (admission control under campaign bursts)\n")
	fmt.Fprintf(&b, "%-9s %10s %10s %9s %8s %10s %8s %9s %11s %9s\n",
		"burst", "admitted", "shed", "shedrate", "maxq", "p99-delay",
		"ham-shed", "ham-rcvd", "ham-outst", "ham-lost")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-9s %10d %10d %8.1f%% %8d %10s %8d %9d %11d %9d\n",
			fmt.Sprintf("%gx", p.Intensity), p.Admitted, p.ShedEvents,
			100*p.ShedRate, p.MaxQueueDepth, p.P99Delay,
			p.HamShed, p.HamRecovered, p.HamOutstanding, p.HamDropped)
	}
	b.WriteString("\nshed events by reason:\n")
	for _, p := range r.Points {
		keys := sortedKeys(p.ShedBy)
		fmt.Fprintf(&b, "  %-8s", fmt.Sprintf("%gx", p.Intensity))
		if len(keys) == 0 {
			b.WriteString(" (none)")
		}
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, p.ShedBy[k])
		}
		fmt.Fprintf(&b, " spam-dropped=%d retries=%d\n", p.SpamDropped, p.Retries)
	}
	if r.HamSafe() {
		b.WriteString("\nham safety: PASS — every shed ham message was tempfailed and retried; zero silently dropped\n")
	} else {
		b.WriteString("\nham safety: FAIL — shed ham was lost\n")
	}
	return b.String()
}

// HamSafe reports the fail-safe invariant: no intensity lost ham.
func (r *SurgeReport) HamSafe() bool {
	for _, p := range r.Points {
		if p.HamDropped != 0 {
			return false
		}
	}
	return true
}
