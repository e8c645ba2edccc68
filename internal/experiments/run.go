// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver consumes a shared fleet Run (one
// simulated multi-month deployment across many companies) and reduces it
// to the same rows/series the paper reports. The paired ablations
// (Paired) instead run two identically-seeded fleets that differ in one
// mechanism. Every fleet is built by NewRun; cmd/reproduce renders each
// artifact, one at a time with -only <artifact>.
//
// The experiment IDs (E1..E17) and their mapping to paper artifacts are
// indexed in DESIGN.md §3, and paper-vs-measured values are recorded in
// EXPERIMENTS.md.
package experiments

import (
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
	// internal/faults injection layer, one injector per company (the
	// chaos experiment; Surge adds its service-latency rule to it).
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
	// EmitDSNs closes the challenge feedback loop through real RFC 3464
	// DSN messages (workload.Config.EmitDSNs): engines learn challenge
	// fates by parsing bounces rather than from the transport callback.
	EmitDSNs bool
}

// Quick is the preset used by unit tests and the golden renders
// (reproduce -preset quick): small but large enough for every ratio to
// stabilise.
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
func NewRun(cfg RunConfig) *Run { return newRun(cfg, nil) }

// newRun is NewRun with arm, when non-nil, applied to the fleet's
// configuration last: the one mechanism a paired ablation switches on.
// It is the only place in this package that builds a fleet.
func newRun(cfg RunConfig, arm func(*workload.Config)) *Run {
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
	wcfg := workload.DefaultConfig(cfg.Seed, cfg.Companies)
	wcfg.FaultPlan = cfg.FaultPlan
	wcfg.Workers = cfg.Workers
	wcfg.Overload = cfg.Overload
	wcfg.SurgeBursts = cfg.SurgeBursts
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
	if arm != nil {
		arm(&wcfg)
	}
	fleet := workload.NewFleet(wcfg)
	fleet.Run(cfg.Days)
	r := &Run{Cfg: cfg, Fleet: fleet, bounced: bounced}
	if runDone != nil {
		runDone(r)
	}
	return r
}

// runDone, when non-nil, sees every run newRun completes. The package's
// tests set it to check Fig. 1's conservation after each fleet.
var runDone func(*Run)

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
	dst.ChallengeRateLimited += m.ChallengeRateLimited
	dst.QuarantineExpired += m.QuarantineExpired
	dst.DigestDeleted += m.DigestDeleted
	dst.MTADegradedAccept += m.MTADegradedAccept
	dst.MTADegradedDrop += m.MTADegradedDrop
	dst.ReputationFastPath += m.ReputationFastPath
	dst.ReputationSuspect += m.ReputationSuspect
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
