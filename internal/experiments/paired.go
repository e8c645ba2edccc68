// Paired ablations: each runs two identically-seeded fleets at one
// shared sizing, a baseline and one with a single mechanism armed, and
// reports what that mechanism moves. The §5.2 configuration questions
// (SPF in the chain, greylisting as an additional technique), the §6
// challenge cap and the sender-reputation stage (reputation.go) are
// answered this way.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// Paired maps each paired ablation's artifact name to its driver,
// rendered: reproduce -only <name> runs it at the preset's seed, company
// count and days.
var Paired = map[string]func(seed int64, companies, days int) string{
	"reputation": rendered(ReputationAblation),
	"spf-online": rendered(SPFOnline),
	"greylist":   rendered(GreylistAblation),
	"ratecap":    rendered(RateCapAblation),
}

func rendered[R interface{ Render() string }](driver func(int64, int, int) R) func(int64, int, int) string {
	return func(seed int64, companies, days int) string { return driver(seed, companies, days).Render() }
}

// pairedConfig is the sizing both fleets of every paired ablation run
// at: an eighth of each company's users and a twelfth of its daily
// volume.
func pairedConfig(seed int64, companies, days int) RunConfig {
	return RunConfig{Seed: seed, Companies: companies, Days: days, UserScale: 1.0 / 8, VolumeScale: 1.0 / 12}
}

// fleetSums is what a paired ablation reads off each of its fleets, so
// the baseline fleet can be dropped before the armed one is built.
type fleetSums struct {
	core.Metrics // fleet-wide engine sums
	trapHits     int64
	solved       int
}

func sumsOf(r *Run) fleetSums {
	return fleetSums{r.Aggregate().All, r.Fleet.Traps.Hits(), r.Fleet.Net.DeliveryStats().Solved}
}

// pairedRow is one counter of a paired ablation, read off both fleets.
type pairedRow struct {
	name       string
	base, with int64
}

// renderPaired renders a paired ablation's title and its counter |
// baseline | with-<arm> table.
func renderPaired(title, arm string, rows ...pairedRow) string {
	var b strings.Builder
	b.WriteString(title + "\n\n")
	fmt.Fprintf(&b, "%-36s %12s %12s\n", "counter", "baseline", "with-"+arm)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %12d %12d\n", r.name, r.base, r.with)
	}
	return b.String()
}

// SPFOnlineResult compares two fleets that differ only in whether the
// SPF filter sits in the engine chain (§5.2's configuration question,
// answered online instead of offline).
type SPFOnlineResult struct {
	ChallengesBaseline int64
	ChallengesWithSPF  int64
	// ChallengeReduction = 1 - with/without.
	ChallengeReduction float64
	SolvedBaseline     int
	SolvedWithSPF      int
	// SolvedLost = 1 - with/without (the false-positive cost).
	SolvedLost float64
	SPFDrops   int64
}

// SPFOnline runs the §5.2 ablation: the second fleet has the SPF filter
// in its chain.
func SPFOnline(seed int64, companies, days int) SPFOnlineResult {
	cfg := pairedConfig(seed, companies, days)
	base := sumsOf(newRun(cfg, nil))
	spf := sumsOf(newRun(cfg, func(c *workload.Config) { c.UseSPFFilter = true }))
	out := SPFOnlineResult{
		ChallengesBaseline: base.ChallengesSent,
		ChallengesWithSPF:  spf.ChallengesSent,
		SolvedBaseline:     base.solved,
		SolvedWithSPF:      spf.solved,
		SPFDrops:           spf.FilterDropped["spf"],
	}
	if out.ChallengesBaseline > 0 {
		out.ChallengeReduction = 1 - float64(out.ChallengesWithSPF)/float64(out.ChallengesBaseline)
	}
	if out.SolvedBaseline > 0 {
		out.SolvedLost = 1 - float64(out.SolvedWithSPF)/float64(out.SolvedBaseline)
	}
	return out
}

// Render formats the ablation as a deterministic report.
func (r SPFOnlineResult) Render() string {
	return renderPaired("SPF ablation — identical seed, with vs without the SPF filter in the engine chain (§5.2)", "spf",
		pairedRow{"challenges sent", r.ChallengesBaseline, r.ChallengesWithSPF},
		pairedRow{"challenges solved", int64(r.SolvedBaseline), int64(r.SolvedWithSPF)},
		pairedRow{"spf drops", 0, r.SPFDrops}) +
		fmt.Sprintf("\nchallenge reduction %.2f%%, solved challenges lost %.2f%%\n", r.ChallengeReduction*100, r.SolvedLost*100)
}

// GreylistResult compares two fleets differing only in SMTP greylisting
// in front of the engines — the second §5.2-style "additional technique"
// ablation.
type GreylistResult struct {
	ChallengesBaseline int64
	ChallengesWithGrey int64
	ChallengeReduction float64
	// WhiteBaseline/WithGrey: whitelisted (wanted) deliveries must not
	// drop — greylisting may only delay them.
	WhiteBaseline int64
	WhiteWithGrey int64
	// TrapHitsBaseline/WithGrey: fewer challenges => fewer trap hits =>
	// less blacklisting exposure.
	TrapHitsBaseline int64
	TrapHitsWithGrey int64
}

// GreylistAblation runs the greylisting ablation: the second fleet
// greylists at its MTA-IN.
func GreylistAblation(seed int64, companies, days int) GreylistResult {
	cfg := pairedConfig(seed, companies, days)
	base := sumsOf(newRun(cfg, nil))
	grey := sumsOf(newRun(cfg, func(c *workload.Config) { c.UseGreylisting = true }))
	out := GreylistResult{
		ChallengesBaseline: base.ChallengesSent,
		ChallengesWithGrey: grey.ChallengesSent,
		WhiteBaseline:      base.SpoolWhite,
		WhiteWithGrey:      grey.SpoolWhite,
		TrapHitsBaseline:   base.trapHits,
		TrapHitsWithGrey:   grey.trapHits,
	}
	if out.ChallengesBaseline > 0 {
		out.ChallengeReduction = 1 - float64(out.ChallengesWithGrey)/float64(out.ChallengesBaseline)
	}
	return out
}

// Render formats the ablation as a deterministic report.
func (r GreylistResult) Render() string {
	return renderPaired("Greylisting ablation — identical seed, with vs without greylisting at MTA-IN (§5.2)", "grey",
		pairedRow{"challenges sent", r.ChallengesBaseline, r.ChallengesWithGrey},
		pairedRow{"white-spool deliveries", r.WhiteBaseline, r.WhiteWithGrey},
		pairedRow{"spamtrap hits", r.TrapHitsBaseline, r.TrapHitsWithGrey}) +
		fmt.Sprintf("\nchallenge reduction %.2f%%\n", r.ChallengeReduction*100)
}

// rateCapPerHour is the per-engine hourly challenge cap the rate-cap
// ablation arms.
const rateCapPerHour = 1

// RateCapResult compares two fleets differing only in the hourly
// challenge cap — the mitigation for §6's deliberate-backscatter attack.
type RateCapResult struct {
	ChallengesBaseline int64
	ChallengesCapped   int64
	TrapHitsBaseline   int64
	TrapHitsCapped     int64
	RateLimited        int64
	// SolvedBaseline/Capped: the cap delays/suppresses some legitimate
	// challenges too — that is its cost.
	SolvedBaseline int
	SolvedCapped   int
}

// RateCapAblation runs the §6 mitigation: the second fleet caps each
// engine at rateCapPerHour challenges an hour.
func RateCapAblation(seed int64, companies, days int) RateCapResult {
	cfg := pairedConfig(seed, companies, days)
	base := sumsOf(newRun(cfg, nil))
	capped := sumsOf(newRun(cfg, func(c *workload.Config) { c.ChallengeCapPerHour = rateCapPerHour }))
	return RateCapResult{
		ChallengesBaseline: base.ChallengesSent,
		ChallengesCapped:   capped.ChallengesSent,
		TrapHitsBaseline:   base.trapHits,
		TrapHitsCapped:     capped.trapHits,
		RateLimited:        capped.ChallengeRateLimited,
		SolvedBaseline:     base.solved,
		SolvedCapped:       capped.solved,
	}
}

// Render formats the ablation as a deterministic report.
func (r RateCapResult) Render() string {
	return renderPaired(fmt.Sprintf("Rate-cap ablation — identical seed, with vs without a cap of %d challenge per engine-hour (§6)", rateCapPerHour), "cap",
		pairedRow{"challenges sent", r.ChallengesBaseline, r.ChallengesCapped},
		pairedRow{"challenges solved", int64(r.SolvedBaseline), int64(r.SolvedCapped)},
		pairedRow{"spamtrap hits", r.TrapHitsBaseline, r.TrapHitsCapped},
		pairedRow{"rate-limited", 0, r.RateLimited})
}
