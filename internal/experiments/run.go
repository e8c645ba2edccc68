// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver consumes a shared fleet Run (one
// simulated multi-month deployment across many companies) and reduces it
// to the same rows/series the paper reports; cmd/reproduce renders them
// and bench_test.go regenerates each artifact as a testing.B benchmark.
//
// The experiment IDs (E1..E16) and their mapping to paper artifacts are
// indexed in DESIGN.md §3, and paper-vs-measured values are recorded in
// EXPERIMENTS.md.
package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/overload"
	"repro/internal/workload"
)

// RunConfig sizes a fleet run.
type RunConfig struct {
	// Seed makes the run reproducible.
	Seed int64
	// Companies is the number of installations (the study had 47).
	Companies int
	// Days is the simulated monitoring period (the study had ~180).
	Days int
	// UserScale and VolumeScale shrink the per-company user counts and
	// daily volumes so runs finish quickly; all reported quantities are
	// ratios/shapes, which are scale-invariant.
	UserScale   float64
	VolumeScale float64
	// FaultPlan, when non-nil, runs the whole workload under the
	// internal/faults injection layer (the chaos experiment).
	FaultPlan *faults.Plan
	// Workers is the fleet's lane worker count (see workload.Config.Workers):
	// 0 means GOMAXPROCS, 1 runs serially; results are identical for
	// every value.
	Workers int
	// Overload, when non-nil, puts an admission controller in front of
	// every engine (the surge experiment).
	Overload *overload.Config
	// SurgeBursts schedules traffic-burst windows of extra botnet spam.
	SurgeBursts []workload.SurgeBurst
	// SurgePlan drives injected per-message service latency through the
	// per-lane "surge" fault target. Unlike FaultPlan it does not force
	// serial execution.
	SurgePlan *faults.Plan
	// EmitDSNs closes the challenge feedback loop through real RFC 3464
	// DSN messages (workload.Config.EmitDSNs): engines learn challenge
	// fates by parsing bounces rather than from the transport callback.
	EmitDSNs bool
}

// Quick is the preset used by unit tests and benchmarks: small but large
// enough for every ratio to stabilise.
func Quick(seed int64) RunConfig {
	return RunConfig{Seed: seed, Companies: 12, Days: 7, UserScale: 0.15, VolumeScale: 0.08}
}

// Standard is the preset used by cmd/reproduce: the full 47-company
// fleet over a simulated month at reduced volume.
func Standard(seed int64) RunConfig {
	return RunConfig{Seed: seed, Companies: 47, Days: 30, UserScale: 0.2, VolumeScale: 0.08}
}

// Run is one completed fleet simulation, shared by all experiment
// drivers.
type Run struct {
	Cfg   RunConfig
	Fleet *workload.Fleet

	// bounced holds, with EmitDSNs, the gray message IDs that a logged
	// bounce event names with a dead-recipient or blocklisting class,
	// matched or orphaned: the decision log's view, not simulator truth.
	bounced map[string]bool
}

// NewRun builds the world and simulates cfg.Days of traffic.
func NewRun(cfg RunConfig) *Run {
	if cfg.Companies <= 0 {
		cfg.Companies = 47
	}
	if cfg.Days <= 0 {
		cfg.Days = 30
	}
	if cfg.UserScale <= 0 {
		cfg.UserScale = 1
	}
	if cfg.VolumeScale <= 0 {
		cfg.VolumeScale = 1
	}
	mail.ResetIDCounter()
	wcfg := workload.DefaultConfig(cfg.Seed, cfg.Companies)
	wcfg.FaultPlan = cfg.FaultPlan
	wcfg.Workers = cfg.Workers
	wcfg.Overload = cfg.Overload
	wcfg.SurgeBursts = cfg.SurgeBursts
	wcfg.SurgePlan = cfg.SurgePlan
	wcfg.EmitDSNs = cfg.EmitDSNs
	var bounced map[string]bool
	if cfg.EmitDSNs {
		bounced = make(map[string]bool)
		wcfg.LogSink = func(ev maillog.Event) {
			if ev.Kind != maillog.KindBounce {
				return
			}
			switch mail.DSNClass(ev.Field("class")) {
			case mail.DSNNoUser, mail.DSNNoDomain, mail.DSNBlocklisted:
				bounced[ev.MsgID] = true
			}
		}
	}
	for i := range wcfg.Profiles {
		p := &wcfg.Profiles[i]
		p.Users = max(5, int(float64(p.Users)*cfg.UserScale))
		p.DailyVolume = max(100, int(float64(p.DailyVolume)*cfg.VolumeScale))
	}
	fleet := workload.NewFleet(wcfg)
	fleet.Run(cfg.Days)
	return &Run{Cfg: cfg, Fleet: fleet, bounced: bounced}
}

// AggregateMetrics sums engine metrics across the fleet, split by relay
// configuration as the paper does (Figures 2 and 3 report open-relay and
// closed servers separately).
type AggregateMetrics struct {
	All       core.Metrics
	Closed    core.Metrics // non-open-relay installations only
	OpenRelay core.Metrics
}

func newMetrics() core.Metrics {
	return core.Metrics{
		MTADropped:       make(map[core.MTAReason]int64),
		FilterDropped:    make(map[string]int64),
		FilterDegraded:   make(map[string]int64),
		Delivered:        make(map[core.DeliveryVia]int64),
		ChallengeBounced: make(map[string]int64),
	}
}

func addInto(dst *core.Metrics, m core.Metrics) {
	dst.MTAIncoming += m.MTAIncoming
	dst.MTAInBytes += m.MTAInBytes
	dst.SpoolWhite += m.SpoolWhite
	dst.SpoolBlack += m.SpoolBlack
	dst.SpoolGray += m.SpoolGray
	dst.DispatchBytes += m.DispatchBytes
	dst.ChallengesSent += m.ChallengesSent
	dst.ChallengeBytes += m.ChallengeBytes
	dst.QuarantineOnly += m.QuarantineOnly
	dst.ChallengeSuppressed += m.ChallengeSuppressed
	dst.QuarantineExpired += m.QuarantineExpired
	dst.DigestDeleted += m.DigestDeleted
	dst.MTADegradedAccept += m.MTADegradedAccept
	dst.MTADegradedDrop += m.MTADegradedDrop
	for k, v := range m.MTADropped {
		dst.MTADropped[k] += v
	}
	for k, v := range m.FilterDropped {
		dst.FilterDropped[k] += v
	}
	for k, v := range m.FilterDegraded {
		dst.FilterDegraded[k] += v
	}
	for k, v := range m.Delivered {
		dst.Delivered[k] += v
	}
	dst.ChallengeLoopSuppressed += m.ChallengeLoopSuppressed
	dst.DSNOrphaned += m.DSNOrphaned
	for k, v := range m.ChallengeBounced {
		dst.ChallengeBounced[k] += v
	}
}

// Aggregate computes the fleet-wide metric sums.
func (r *Run) Aggregate() AggregateMetrics {
	agg := AggregateMetrics{All: newMetrics(), Closed: newMetrics(), OpenRelay: newMetrics()}
	for _, c := range r.Fleet.Companies {
		m := c.Engine.Metrics()
		addInto(&agg.All, m)
		if r.Fleet.Profile(c.Name).OpenRelay {
			addInto(&agg.OpenRelay, m)
		} else {
			addInto(&agg.Closed, m)
		}
	}
	return agg
}

// rng returns a deterministic rand for presentation-level sampling
// (e.g. picking the three Figure 10 archetype users).
func (r *Run) rng() *rand.Rand {
	return rand.New(rand.NewSource(r.Cfg.Seed + 99))
}
