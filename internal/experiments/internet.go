package experiments

import (
	"sort"

	"repro/internal/core"
	"repro/internal/mail"
	"repro/internal/simnet"
	"repro/internal/spf"
	"repro/internal/stats"
	"repro/internal/workload"
)

// --- E1/E2/E3: Figure 1 lifecycle, Figure 2 MTA-IN, Figure 3 engine ---

// LifecycleResult is the Figure 1 "weighted lifecycle": the fate of 1,000
// messages arriving at a (non-open-relay) MTA-IN, plus the §2 drop-reason
// breakdown and the Figure 3 gray-spool categorisation for both relay
// configurations.
type LifecycleResult struct {
	// Per-1,000 figures for closed (non-open-relay) installations,
	// matching the paper's Figure 1 normalisation.
	Per1000 struct {
		Dropped    float64
		White      float64
		Black      float64
		Gray       float64
		Challenges float64
	}
	// DropReasons are fractions of all incoming (closed installations).
	DropReasons map[core.MTAReason]float64
	// GrayBreakdown are fractions of the gray spool (closed).
	GrayBreakdown struct {
		FilterDropped float64
		Challenged    float64
		Suppressed    float64 // held behind an outstanding challenge
		NullSender    float64
	}
	// OpenRelayGray is the same breakdown for open-relay installations;
	// the paper reports ~9% more challenges there.
	OpenRelayGray struct {
		FilterDropped float64
		Challenged    float64
	}
	// FilterShares are each auxiliary filter's share of gray drops.
	FilterShares map[string]float64
}

// Lifecycle computes E1–E3.
func Lifecycle(r *Run) LifecycleResult {
	agg := r.Aggregate()
	var out LifecycleResult
	c := agg.Closed
	if c.MTAIncoming > 0 {
		scale := 1000 / float64(c.MTAIncoming)
		out.Per1000.Dropped = float64(c.TotalMTADropped()) * scale
		out.Per1000.White = float64(c.SpoolWhite) * scale
		out.Per1000.Black = float64(c.SpoolBlack) * scale
		out.Per1000.Gray = float64(c.SpoolGray) * scale
		out.Per1000.Challenges = float64(c.ChallengesSent) * scale
		out.DropReasons = make(map[core.MTAReason]float64)
		for k, v := range c.MTADropped {
			out.DropReasons[k] = float64(v) / float64(c.MTAIncoming)
		}
	}
	if c.SpoolGray > 0 {
		g := float64(c.SpoolGray)
		out.GrayBreakdown.FilterDropped = float64(c.TotalFilterDropped()) / g
		out.GrayBreakdown.Challenged = float64(c.ChallengesSent) / g
		out.GrayBreakdown.Suppressed = float64(c.ChallengeSuppressed) / g
		out.GrayBreakdown.NullSender = float64(c.QuarantineOnly) / g
		out.FilterShares = make(map[string]float64)
		total := float64(c.TotalFilterDropped())
		if total > 0 {
			for k, v := range c.FilterDropped {
				out.FilterShares[k] = float64(v) / total
			}
		}
	}
	if o := agg.OpenRelay; o.SpoolGray > 0 {
		g := float64(o.SpoolGray)
		out.OpenRelayGray.FilterDropped = float64(o.TotalFilterDropped()) / g
		out.OpenRelayGray.Challenged = float64(o.ChallengesSent) / g
	}
	return out
}

// --- E15: the §3 scalar ratios ---

// Ratios are the headline scalars of §3: reflection ratio at the CR
// filter and at the MTA-IN, reflected traffic ratio, the backscatter
// bound β, and the "one challenge per N emails" figure from §6.
type Ratios struct {
	ReflectionCR   float64 // paper: 0.193
	ReflectionMTA  float64 // paper: 0.048
	ReflectedRT    float64 // paper: 0.025
	EmailsPerChal  float64 // paper: ~21
	BackscatterCR  float64 // worst case, paper: 0.087
	BackscatterMTA float64 // paper: 0.021
}

// ComputeRatios computes E15. Backscatter β multiplies the reflection
// ratio by the fraction of challenges that were delivered but never
// solved (the paper's worst-case upper bound for misdirected challenges
// reaching real users).
func ComputeRatios(r *Run) Ratios {
	agg := r.Aggregate().All
	st := r.Fleet.Net.DeliveryStats()
	var rt Ratios
	rt.ReflectionCR = agg.ReflectionRatio()
	rt.ReflectionMTA = agg.ReflectionRatioMTA()
	rt.ReflectedRT = agg.ReflectedTrafficRatio()
	if agg.ChallengesSent > 0 {
		rt.EmailsPerChal = float64(agg.MTAIncoming) / float64(agg.ChallengesSent)
	}
	if st.Total > 0 {
		deliveredUnsolved := float64(st.ByStatus[simnet.StatusDelivered]-st.Solved) / float64(st.Total)
		rt.BackscatterCR = rt.ReflectionCR * deliveredUnsolved
		rt.BackscatterMTA = rt.ReflectionMTA * deliveredUnsolved
	}
	return rt
}

// --- E5: Figure 4(a) challenge delivery status ---

// DeliveryStatusResult is the Figure 4(a) distribution plus the §3.2
// bounce decomposition and URL-visit statistics.
type DeliveryStatusResult struct {
	Total          int
	Fractions      map[simnet.ChallengeStatus]float64
	DeliveredFrac  float64 // paper: 0.49
	BouncedNoUser  float64 // fraction of undelivered that bounced no-user (paper: 0.717)
	SolvedFrac     float64 // of all challenges (paper: ~0.04)
	NeverOpened    float64 // of delivered challenges (paper: ~0.94)
	VisitedNotSolv float64 // of delivered challenges (paper: ~0.0025 of delivered)
}

// DeliveryStatus computes E5.
func DeliveryStatus(r *Run) DeliveryStatusResult {
	st := r.Fleet.Net.DeliveryStats()
	out := DeliveryStatusResult{Total: st.Total, Fractions: make(map[simnet.ChallengeStatus]float64)}
	if st.Total == 0 {
		return out
	}
	tot := float64(st.Total)
	for k, v := range st.ByStatus {
		out.Fractions[k] = float64(v) / tot
	}
	delivered := st.ByStatus[simnet.StatusDelivered]
	out.DeliveredFrac = float64(delivered) / tot
	undelivered := st.Total - delivered
	if undelivered > 0 {
		bounced := st.ByStatus[simnet.StatusBouncedNoUser] + st.ByStatus[simnet.StatusBouncedNoDomain]
		out.BouncedNoUser = float64(bounced) / float64(undelivered)
	}
	out.SolvedFrac = float64(st.Solved) / tot
	if delivered > 0 {
		out.NeverOpened = float64(st.NeverVisited) / float64(delivered)
		out.VisitedNotSolv = float64(st.VisitedOnly) / float64(delivered)
	}
	return out
}

// --- E6: Figure 4(b) CAPTCHA attempts ---

// CaptchaTriesResult is the attempts histogram over solved challenges.
type CaptchaTriesResult struct {
	// Tries[i] is the fraction of solves that took i+1 attempts.
	Tries  []float64
	Solved int
	// MaxTries is the largest observed attempt count (paper: never >5).
	MaxTries int
}

// CaptchaTries computes E6.
func CaptchaTries(r *Run) CaptchaTriesResult {
	hist := r.Fleet.Net.AttemptsHistogram()
	out := CaptchaTriesResult{}
	for tries, n := range hist {
		out.Solved += n
		if tries > out.MaxTries {
			out.MaxTries = tries
		}
	}
	if out.MaxTries == 0 {
		return out
	}
	out.Tries = make([]float64, out.MaxTries)
	for tries, n := range hist {
		out.Tries[tries-1] = float64(n) / float64(out.Solved)
	}
	return out
}

// --- E14: Figure 12 SPF what-if ---

// SPFCategory mirrors the paper's Figure 12 grouping of challenges.
type SPFCategory int

// Figure 12 categories.
const (
	// SPFSolved: the challenge was solved (losing these is the cost).
	SPFSolved SPFCategory = iota
	// SPFDeliveredUnsolved: delivered but ignored (backscatter risk).
	SPFDeliveredUnsolved
	// SPFBounced: the challenge bounced.
	SPFBounced
	// SPFExpired: the challenge expired undelivered.
	SPFExpired
)

// String returns the category label.
func (c SPFCategory) String() string {
	switch c {
	case SPFSolved:
		return "solved"
	case SPFDeliveredUnsolved:
		return "delivered-unsolved"
	case SPFBounced:
		return "bounced"
	case SPFExpired:
		return "expired"
	default:
		return "unknown"
	}
}

// SPFResult is the offline what-if: for each challenge category, the
// fraction of the original gray messages that an SPF filter would have
// dropped (preventing the challenge).
type SPFResult struct {
	// FailFrac[cat] = would-be-dropped fraction within the category.
	FailFrac map[SPFCategory]float64
	Totals   map[SPFCategory]int
	// BadRemoved is the fraction of all non-solved challenges removed.
	BadRemoved float64
	// SolvedLost is the fraction of solved challenges removed (cost).
	SolvedLost float64
}

// SPFWhatIf computes E14: it re-evaluates SPF for the message behind
// every challenge, exactly like the paper's offline tool over the gray
// spool.
func SPFWhatIf(r *Run) SPFResult {
	checker := spf.New(r.Fleet.DNS)
	fails := make(map[SPFCategory]int)
	totals := make(map[SPFCategory]int)
	for _, rec := range r.Fleet.Net.Records() {
		if _, ok := r.Fleet.Truth(rec.MsgID); !ok {
			continue
		}
		var cat SPFCategory
		switch {
		case rec.Solved:
			cat = SPFSolved
		case rec.Status == simnet.StatusDelivered:
			cat = SPFDeliveredUnsolved
		case rec.Status.Bounced():
			cat = SPFBounced
		default:
			cat = SPFExpired
		}
		totals[cat]++
		if checker.Check(rec.ClientIP, rec.To.Domain) == spf.Fail {
			fails[cat]++
		}
	}
	out := SPFResult{FailFrac: make(map[SPFCategory]float64), Totals: totals}
	var badFail, badTotal int
	for cat, tot := range totals {
		if tot > 0 {
			out.FailFrac[cat] = float64(fails[cat]) / float64(tot)
		}
		if cat != SPFSolved {
			badFail += fails[cat]
			badTotal += tot
		}
	}
	if badTotal > 0 {
		out.BadRemoved = float64(badFail) / float64(badTotal)
	}
	if totals[SPFSolved] > 0 {
		out.SolvedLost = float64(fails[SPFSolved]) / float64(totals[SPFSolved])
	}
	return out
}

// --- E13: Figure 11 server blacklisting ---

// BlacklistRow is one company's §5.1 exposure.
type BlacklistRow struct {
	Company        string
	ChallengesSent int64
	ListedFraction float64 // fraction of checker polls listed
	ListedDays     float64
	SplitMTAOut    bool
}

// BlacklistResult is the Figure 11 dataset plus summary statistics.
type BlacklistResult struct {
	Rows        []BlacklistRow
	NeverListed int
	// CorrSizeListing is the Pearson correlation between challenges sent
	// and listed fraction — the paper's headline: no relationship.
	CorrSizeListing float64
	// SpearmanSizeListing is the rank correlation, robust to the
	// heavy-tailed challenge-volume distribution.
	SpearmanSizeListing float64
	TrapHits            int64
}

// Blacklisting computes E13.
func Blacklisting(r *Run) BlacklistResult {
	var out BlacklistResult
	var xs, ys []float64
	for _, c := range r.Fleet.Companies {
		m := c.Engine.Metrics()
		frac := r.Fleet.Checker.ListedFraction(c.ChallengeIP)
		row := BlacklistRow{
			Company:        c.Name,
			ChallengesSent: m.ChallengesSent,
			ListedFraction: frac,
			ListedDays:     r.Fleet.Checker.ListedDays(c.ChallengeIP, r.Fleet.Cfg.CheckerPeriod),
			SplitMTAOut:    c.SplitMTAOut(),
		}
		out.Rows = append(out.Rows, row)
		if frac == 0 {
			out.NeverListed++
		}
		xs = append(xs, float64(m.ChallengesSent))
		ys = append(ys, frac)
	}
	sort.Slice(out.Rows, func(i, j int) bool {
		return out.Rows[i].ChallengesSent > out.Rows[j].ChallengesSent
	})
	if len(xs) >= 2 {
		out.CorrSizeListing = stats.Pearson(xs, ys)
		out.SpearmanSizeListing = stats.Spearman(xs, ys)
	}
	out.TrapHits = r.Fleet.Traps.Hits()
	return out
}

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

// RateCapAblation runs two identically-seeded fleets, the second with a
// per-engine hourly challenge cap.
func RateCapAblation(seed int64, companies, days, capPerHour int) RateCapResult {
	build := func(cap int) (int64, int64, int64, int) {
		mail.ResetIDCounter()
		cfg := workload.DefaultConfig(seed, companies)
		cfg.ChallengeCapPerHour = cap
		for i := range cfg.Profiles {
			cfg.Profiles[i].Users = max(5, cfg.Profiles[i].Users/8)
			cfg.Profiles[i].DailyVolume = max(200, cfg.Profiles[i].DailyVolume/6)
		}
		fleet := workload.NewFleet(cfg)
		fleet.Run(days)
		var challenges, limited int64
		for _, c := range fleet.Companies {
			m := c.Engine.Metrics()
			challenges += m.ChallengesSent
			limited += m.ChallengeRateLimited
		}
		return challenges, limited, fleet.Traps.Hits(), fleet.Net.DeliveryStats().Solved
	}
	chBase, _, trapsBase, solvedBase := build(0)
	chCap, limited, trapsCap, solvedCap := build(capPerHour)
	return RateCapResult{
		ChallengesBaseline: chBase,
		ChallengesCapped:   chCap,
		TrapHitsBaseline:   trapsBase,
		TrapHitsCapped:     trapsCap,
		RateLimited:        limited,
		SolvedBaseline:     solvedBase,
		SolvedCapped:       solvedCap,
	}
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

// GreylistAblation runs two identically-seeded small fleets, one with
// greylisting enabled.
func GreylistAblation(seed int64, companies, days int) GreylistResult {
	build := func(useGrey bool) (int64, int64, int64) {
		mail.ResetIDCounter()
		cfg := workload.DefaultConfig(seed, companies)
		cfg.UseGreylisting = useGrey
		for i := range cfg.Profiles {
			cfg.Profiles[i].Users = max(5, cfg.Profiles[i].Users/8)
			cfg.Profiles[i].DailyVolume = max(100, cfg.Profiles[i].DailyVolume/12)
		}
		fleet := workload.NewFleet(cfg)
		fleet.Run(days)
		var challenges, white int64
		for _, c := range fleet.Companies {
			m := c.Engine.Metrics()
			challenges += m.ChallengesSent
			white += m.SpoolWhite
		}
		return challenges, white, fleet.Traps.Hits()
	}
	chBase, whiteBase, trapsBase := build(false)
	chGrey, whiteGrey, trapsGrey := build(true)
	out := GreylistResult{
		ChallengesBaseline: chBase,
		ChallengesWithGrey: chGrey,
		WhiteBaseline:      whiteBase,
		WhiteWithGrey:      whiteGrey,
		TrapHitsBaseline:   trapsBase,
		TrapHitsWithGrey:   trapsGrey,
	}
	if chBase > 0 {
		out.ChallengeReduction = 1 - float64(chGrey)/float64(chBase)
	}
	return out
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

// SPFOnline runs the §5.2 ablation: two identically-seeded small fleets,
// one with the SPF filter in the chain. Expensive relative to the other
// drivers (it simulates twice); intended for the dedicated benchmark.
func SPFOnline(seed int64, companies, days int) SPFOnlineResult {
	build := func(useSPF bool) (*workload.Fleet, int64, int, int64) {
		mail.ResetIDCounter()
		cfg := workload.DefaultConfig(seed, companies)
		cfg.UseSPFFilter = useSPF
		for i := range cfg.Profiles {
			cfg.Profiles[i].Users = max(5, cfg.Profiles[i].Users/8)
			cfg.Profiles[i].DailyVolume = max(100, cfg.Profiles[i].DailyVolume/12)
		}
		fleet := workload.NewFleet(cfg)
		fleet.Run(days)
		var challenges, spfDrops int64
		for _, c := range fleet.Companies {
			m := c.Engine.Metrics()
			challenges += m.ChallengesSent
			spfDrops += m.FilterDropped["spf"]
		}
		return fleet, challenges, fleet.Net.DeliveryStats().Solved, spfDrops
	}
	_, chBase, solvedBase, _ := build(false)
	_, chSPF, solvedSPF, drops := build(true)
	out := SPFOnlineResult{
		ChallengesBaseline: chBase,
		ChallengesWithSPF:  chSPF,
		SolvedBaseline:     solvedBase,
		SolvedWithSPF:      solvedSPF,
		SPFDrops:           drops,
	}
	if chBase > 0 {
		out.ChallengeReduction = 1 - float64(chSPF)/float64(chBase)
	}
	if solvedBase > 0 {
		out.SolvedLost = 1 - float64(solvedSPF)/float64(solvedBase)
	}
	return out
}
