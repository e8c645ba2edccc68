package experiments

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/maillog"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/whitelist"
	"repro/internal/workload"
)

// sharedRun is built once: the experiment drivers are read-only over it.
var (
	runOnce   sync.Once
	sharedRun *Run
)

func testRun(t *testing.T) *Run {
	t.Helper()
	runOnce.Do(func() { sharedRun = NewRun(Quick(42)) })
	return sharedRun
}

func TestLifecycleShape(t *testing.T) {
	r := testRun(t)
	lc := Lifecycle(r)

	// Figure 1: ~757/1000 dropped at the MTA for closed servers.
	if lc.Per1000.Dropped < 600 || lc.Per1000.Dropped > 850 {
		t.Fatalf("dropped per 1000 = %v, want ~757", lc.Per1000.Dropped)
	}
	// White ~31, black ~4, gray ~208 per 1000.
	if lc.Per1000.White < 15 || lc.Per1000.White > 60 {
		t.Fatalf("white per 1000 = %v, want ~31", lc.Per1000.White)
	}
	if lc.Per1000.Gray < 120 || lc.Per1000.Gray > 320 {
		t.Fatalf("gray per 1000 = %v, want ~208", lc.Per1000.Gray)
	}
	if lc.Per1000.Challenges < 20 || lc.Per1000.Challenges > 90 {
		t.Fatalf("challenges per 1000 = %v, want ~48", lc.Per1000.Challenges)
	}
	// Unknown recipient dominates the drop reasons (paper: 62.36%).
	if lc.DropReasons[core.UnknownRecipient] < 0.5 {
		t.Fatalf("unknown-recipient drops = %v, want dominant", lc.DropReasons[core.UnknownRecipient])
	}
	// Unresolvable is the second-largest (paper: 4.19%).
	if lc.DropReasons[core.Unresolvable] < 0.02 || lc.DropReasons[core.Unresolvable] > 0.09 {
		t.Fatalf("unresolvable drops = %v, want ~0.042", lc.DropReasons[core.Unresolvable])
	}
	// Gray breakdown: filters drop roughly half (paper: 54%).
	if lc.GrayBreakdown.FilterDropped < 0.35 || lc.GrayBreakdown.FilterDropped > 0.75 {
		t.Fatalf("gray filter-drop = %v, want ~0.54", lc.GrayBreakdown.FilterDropped)
	}
	// Per-filter ordering matches the paper: RBL > rDNS > AV.
	if !(lc.FilterShares["rbl"] > lc.FilterShares["reverse-dns"] &&
		lc.FilterShares["reverse-dns"] > lc.FilterShares["antivirus"]) {
		t.Fatalf("filter shares ordering wrong: %v", lc.FilterShares)
	}
	// Open relays challenge a larger share of gray (paper: +9%).
	if lc.OpenRelayGray.Challenged <= lc.GrayBreakdown.Challenged {
		t.Logf("note: open-relay challenge share %.3f vs closed %.3f (paper: open higher)",
			lc.OpenRelayGray.Challenged, lc.GrayBreakdown.Challenged)
	}
}

func TestRatiosShape(t *testing.T) {
	r := testRun(t)
	rt := ComputeRatios(r)
	// Paper: R = 19.3% at the CR filter, 4.8% at the MTA.
	if rt.ReflectionCR < 0.08 || rt.ReflectionCR > 0.35 {
		t.Fatalf("R@CR = %v, want ~0.19", rt.ReflectionCR)
	}
	if rt.ReflectionMTA < 0.02 || rt.ReflectionMTA > 0.10 {
		t.Fatalf("R@MTA = %v, want ~0.048", rt.ReflectionMTA)
	}
	// Paper: RT = 2.5% (challenges are small; incoming mail is bigger).
	if rt.ReflectedRT < 0.005 || rt.ReflectedRT > 0.12 {
		t.Fatalf("RT = %v, want ~0.025", rt.ReflectedRT)
	}
	// Paper: one challenge per ~21 incoming emails.
	if rt.EmailsPerChal < 10 || rt.EmailsPerChal > 50 {
		t.Fatalf("emails/challenge = %v, want ~21", rt.EmailsPerChal)
	}
	// β < R always; paper worst case 8.7% at CR.
	if rt.BackscatterCR >= rt.ReflectionCR || rt.BackscatterCR <= 0 {
		t.Fatalf("β = %v vs R = %v", rt.BackscatterCR, rt.ReflectionCR)
	}
}

func TestDeliveryStatusShape(t *testing.T) {
	r := testRun(t)
	ds := DeliveryStatus(r)
	if ds.Total == 0 {
		t.Fatal("no challenges recorded")
	}
	// Paper: 49% delivered.
	if ds.DeliveredFrac < 0.3 || ds.DeliveredFrac > 0.7 {
		t.Fatalf("delivered = %v, want ~0.49", ds.DeliveredFrac)
	}
	// Paper: 71.7% of undelivered are no-user bounces.
	if ds.BouncedNoUser < 0.5 || ds.BouncedNoUser > 0.95 {
		t.Fatalf("bounced-no-user share = %v, want ~0.717", ds.BouncedNoUser)
	}
	// Paper: ~94% of delivered challenge URLs never opened.
	if ds.NeverOpened < 0.75 {
		t.Fatalf("never-opened = %v, want ~0.94", ds.NeverOpened)
	}
	// Paper: ~4% of challenges solved (2-12% across companies).
	if ds.SolvedFrac < 0.01 || ds.SolvedFrac > 0.15 {
		t.Fatalf("solved = %v, want ~0.04", ds.SolvedFrac)
	}
	// Pending must be negligible after the run drains.
	if f := ds.Fractions[simnet.StatusPending]; f > 0.1 {
		t.Fatalf("pending = %v", f)
	}
}

func TestCaptchaTriesShape(t *testing.T) {
	r := testRun(t)
	ct := CaptchaTries(r)
	if ct.Solved == 0 {
		t.Fatal("no solves")
	}
	// Paper: never more than five attempts.
	if ct.MaxTries > 5 {
		t.Fatalf("max tries = %d, want <= 5", ct.MaxTries)
	}
	// First-try solves dominate.
	if len(ct.Tries) == 0 || ct.Tries[0] < 0.5 {
		t.Fatalf("first-try fraction = %v, want > 0.5", ct.Tries)
	}
}

func TestSPFWhatIfShape(t *testing.T) {
	r := testRun(t)
	sp := SPFWhatIf(r)
	// SPF must remove some bad challenges at a small cost to solved ones
	// (paper: 2.5% of bad vs 0.25% of solved).
	if sp.BadRemoved <= 0 {
		t.Fatalf("SPF removed no bad challenges: %+v", sp)
	}
	if sp.SolvedLost >= sp.BadRemoved {
		t.Fatalf("SPF cost (%v) >= benefit (%v)", sp.SolvedLost, sp.BadRemoved)
	}
	if sp.SolvedLost > 0.05 {
		t.Fatalf("SPF solved-lost = %v, want near 0", sp.SolvedLost)
	}
}

func TestBlacklistingShape(t *testing.T) {
	r := testRun(t)
	bl := Blacklisting(r)
	if len(bl.Rows) != r.Cfg.Companies {
		t.Fatalf("rows = %d", len(bl.Rows))
	}
	// Paper: most servers never listed (75%), and no correlation between
	// size and listing.
	if bl.NeverListed == 0 {
		t.Fatal("every server got listed; paper found 75% never listed")
	}
	// The Quick preset has only 12 companies, so the Pearson estimate is
	// noisy; the 47-company standard run lands near +0.4 (vs the paper's
	// "no relationship"). Guard against a strong systematic coupling.
	if bl.CorrSizeListing > 0.85 {
		t.Fatalf("corr(challenges, listed) = %v; paper found no relationship", bl.CorrSizeListing)
	}
	if bl.TrapHits == 0 {
		t.Fatal("no trap hits; the blacklisting channel never fired")
	}
}

func TestClusteringShape(t *testing.T) {
	r := testRun(t)
	cl := Clustering(r)
	if cl.Stats.Clusters == 0 {
		t.Fatal("no clusters found")
	}
	if cl.Stats.LowSim == 0 || cl.Stats.HighSim == 0 {
		t.Fatalf("similarity split degenerate: %+v", cl.Stats)
	}
	// High-similarity (newsletter) clusters solve far more than botnet
	// clusters; botnet clusters bounce far more.
	if cl.Stats.HighSimSolved <= cl.Stats.LowSimSolved {
		t.Fatalf("solved: high %v <= low %v", cl.Stats.HighSimSolved, cl.Stats.LowSimSolved)
	}
	if cl.Stats.LowSimBounced <= cl.Stats.HighSimBounced {
		t.Fatalf("bounced: low %v <= high %v", cl.Stats.LowSimBounced, cl.Stats.HighSimBounced)
	}
	// Spurious deliveries are rare (paper: ~1e-4 per challenge).
	if cl.SpuriousPerChallenge > 0.01 {
		t.Fatalf("spurious rate = %v, want ~1e-4", cl.SpuriousPerChallenge)
	}
}

func TestDelayCDFShape(t *testing.T) {
	r := testRun(t)
	dc := DelayCDF(r)
	if dc.Captcha.N() == 0 || dc.Digest.N() == 0 {
		t.Fatalf("CDF samples: captcha=%d digest=%d", dc.Captcha.N(), dc.Digest.N())
	}
	// Paper: 30% under 5 min, 50% under 30 min for solved challenges.
	if dc.CaptchaUnder5Min < 0.1 || dc.CaptchaUnder5Min > 0.6 {
		t.Fatalf("captcha <5min = %v, want ~0.30", dc.CaptchaUnder5Min)
	}
	if dc.CaptchaUnder30Min < dc.CaptchaUnder5Min {
		t.Fatal("CDF not monotone")
	}
	if dc.CaptchaUnder30Min < 0.3 || dc.CaptchaUnder30Min > 0.8 {
		t.Fatalf("captcha <30min = %v, want ~0.50", dc.CaptchaUnder30Min)
	}
	// Digest deliveries are slow: between 4h and 3 days in the paper.
	if dc.DigestUnder3Days < 0.5 {
		t.Fatalf("digest <3d = %v", dc.DigestUnder3Days)
	}
}

func TestSolveTimeShape(t *testing.T) {
	r := testRun(t)
	st := SolveTimeDist(r)
	if st.Solves == 0 {
		t.Fatal("no solves")
	}
	// Paper (Figure 8): solves concentrate below 4 hours.
	if st.Under4HFrac < 0.5 {
		t.Fatalf("solves under 4h = %v, want majority", st.Under4HFrac)
	}
}

func TestWhitelistChurnShape(t *testing.T) {
	r := testRun(t)
	ch := WhitelistChurn(r)
	if ch.ModifiedUsers == 0 {
		t.Fatal("no whitelist changed")
	}
	// Figure 9: the 1-10 bucket dominates (51.1% in the paper).
	fr := ch.Hist.Fractions()
	maxIdx := 0
	for i, f := range fr {
		if f > fr[maxIdx] {
			maxIdx = i
		}
	}
	if maxIdx > 2 {
		t.Fatalf("modal churn bucket = %d, want low-churn dominance: %v", maxIdx, fr)
	}
	// Mean churn near the paper's 0.3 new entries/user/day.
	if ch.MeanNewPerUserDay > 3 {
		t.Fatalf("mean churn = %v entries/user/day, want ~0.3", ch.MeanNewPerUserDay)
	}
}

func TestWhitelistSources(t *testing.T) {
	r := testRun(t)
	src := WhitelistSources(r)
	if src[whitelist.SourceSeed] == 0 || src[whitelist.SourceChallenge] == 0 {
		t.Fatalf("sources missing: %v", src)
	}
	if src[whitelist.SourceOutbound] == 0 {
		t.Fatal("no outbound-driven whitelist additions")
	}
}

func TestDailyPendingShape(t *testing.T) {
	r := testRun(t)
	ps := DailyPending(r)
	if len(ps) != 3 {
		t.Fatalf("archetypes = %d, want 3", len(ps))
	}
	if len(ps[0].Series) != r.Cfg.Days {
		t.Fatalf("series length = %d, want %d", len(ps[0].Series), r.Cfg.Days)
	}
	// Ordered largest to smallest mean.
	if ps[0].Mean < ps[2].Mean {
		t.Fatalf("archetype ordering wrong: %v vs %v", ps[0].Mean, ps[2].Mean)
	}
}

// corr reads the correlation between two named columns of m, as the
// rendered matrix shows it.
func corr(t *testing.T, m *stats.CorrelationMatrix, a, b string) float64 {
	t.Helper()
	ia, ib := slices.Index(m.Names, a), slices.Index(m.Names, b)
	if ia < 0 || ib < 0 {
		t.Fatalf("matrix %v lacks %q or %q", m.Names, a, b)
	}
	return m.R[ia][ib]
}

func TestCorrelationsShape(t *testing.T) {
	r := testRun(t)
	co := Correlations(r)
	if len(co.Companies) != r.Cfg.Companies {
		t.Fatalf("companies = %d", len(co.Companies))
	}
	// users vs emails: clearly positive (volume tracks size).
	if v := corr(t, co.Matrix, "users", "emails"); v < 0.3 {
		t.Fatalf("corr(users, emails) = %v, want positive", v)
	}
	// reflection vs users: the paper's headline is NO correlation.
	if v := corr(t, co.Matrix, "reflection", "users"); v > 0.5 || v < -0.5 {
		t.Fatalf("corr(reflection, users) = %v; paper found none", v)
	}
	// reflection vs white: small inverse correlation in the paper.
	if v := corr(t, co.Matrix, "reflection", "white"); v > 0.1 {
		t.Fatalf("corr(reflection, white) = %v, want negative-ish", v)
	}
}

func TestGeneralStats(t *testing.T) {
	r := testRun(t)
	g := General(r)
	if g.Companies != r.Cfg.Companies || g.UsersProtected == 0 {
		t.Fatalf("general stats degenerate: %+v", g)
	}
	if g.TotalIncoming == 0 || g.ChallengesSent == 0 || g.SolvedCaptchas == 0 {
		t.Fatalf("counters zero: %+v", g)
	}
	if g.DroppedByFilters != g.DroppedRBL+g.DroppedReverseDNS+g.DroppedAntivirus {
		t.Fatal("filter drops don't sum")
	}
	if g.WhitelistedDigest == 0 {
		t.Fatal("no digest whitelisting happened")
	}
	// The spool identity: incoming = dropped + white + black + gray.
	if g.TotalIncoming != g.DroppedAtMTA+g.WhiteSpool+g.BlackSpool+g.GraySpool {
		t.Fatalf("spool identity violated: %d != %d+%d+%d+%d",
			g.TotalIncoming, g.DroppedAtMTA, g.WhiteSpool, g.BlackSpool, g.GraySpool)
	}
}

func TestSplitAblation(t *testing.T) {
	r := testRun(t)
	ab := SplitAblation(r)
	if ab.SharedCompanies+ab.SplitCompanies != r.Cfg.Companies {
		t.Fatalf("ablation partition wrong: %+v", ab)
	}
	if ab.SplitCompanies == 0 {
		t.Fatal("no split-MTA-OUT companies in fleet")
	}
	// Split user-mail IPs should never be listed (they send no
	// challenges), while shared IPs may be.
	if ab.SplitListedFrac > ab.SharedListedFrac {
		t.Fatalf("split exposure %v > shared %v", ab.SplitListedFrac, ab.SharedListedFrac)
	}
}

func TestSPFOnlineAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fleet simulations")
	}
	res := SPFOnline(7, 6, 4)
	if res.ChallengesBaseline == 0 || res.ChallengesWithSPF == 0 {
		t.Fatalf("degenerate ablation: %+v", res)
	}
	// The SPF filter must reduce challenge volume (it pre-drops spoofed
	// gray mail) without destroying the solved population.
	if res.ChallengesWithSPF >= res.ChallengesBaseline {
		t.Fatalf("SPF did not reduce challenges: %d -> %d",
			res.ChallengesBaseline, res.ChallengesWithSPF)
	}
	if res.SPFDrops == 0 {
		t.Fatal("SPF filter never fired")
	}
	if res.SolvedLost > 0.5 {
		t.Fatalf("SPF destroyed %v of solved challenges", res.SolvedLost)
	}
}

func TestGreylistAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fleet simulations")
	}
	res := GreylistAblation(7, 6, 4)
	// Greylisting cuts challenge volume hard: fire-and-forget spam never
	// retries, so most spoofed gray mail never reaches the CR engine.
	if res.ChallengeReduction < 0.3 {
		t.Fatalf("greylist challenge reduction = %v, want substantial", res.ChallengeReduction)
	}
	// Wanted (whitelisted) mail still arrives — just delayed. Allow a
	// tolerance for end-of-run retries still in flight.
	if float64(res.WhiteWithGrey) < 0.85*float64(res.WhiteBaseline) {
		t.Fatalf("white deliveries dropped: %d -> %d", res.WhiteBaseline, res.WhiteWithGrey)
	}
	// Backscatter exposure shrinks with challenge volume.
	if res.TrapHitsWithGrey > res.TrapHitsBaseline {
		t.Fatalf("trap hits rose under greylisting: %d -> %d",
			res.TrapHitsBaseline, res.TrapHitsWithGrey)
	}
}

func TestRateCapAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fleet simulations")
	}
	res := RateCapAblation(7, 6, 4)
	if res.ChallengesCapped >= res.ChallengesBaseline {
		t.Fatalf("cap did not reduce challenges: %d -> %d",
			res.ChallengesBaseline, res.ChallengesCapped)
	}
	if res.RateLimited == 0 {
		t.Fatal("cap never fired")
	}
	if res.TrapHitsCapped > res.TrapHitsBaseline {
		t.Fatalf("trap hits rose under the cap: %d -> %d",
			res.TrapHitsBaseline, res.TrapHitsCapped)
	}
	// What the cap bounds: each engine's limiter opens a one-hour window
	// with a challenge and sends at most rateCapPerHour challenges in
	// it; the first challenge an hour or more after the window opened
	// opens the next. Replay those windows over the capped fleet's
	// decision log.
	sent := make(map[string][]time.Time)
	newRun(pairedConfig(7, 6, 4), func(c *workload.Config) {
		c.ChallengeCapPerHour = rateCapPerHour
		c.LogSink = func(ev maillog.Event) {
			if ev.Kind == maillog.KindChallenge {
				sent[ev.Company] = append(sent[ev.Company], ev.Time)
			}
		}
	})
	var logged int64
	for company, times := range sent {
		logged += int64(len(times))
		var opened time.Time
		n := 0
		for _, at := range times {
			if n == 0 || at.Sub(opened) >= time.Hour {
				opened, n = at, 0
			}
			if n++; n > rateCapPerHour {
				t.Fatalf("%s sent %d challenges in the limiter window opened at %v, cap %d",
					company, n, opened, rateCapPerHour)
			}
		}
	}
	if logged != res.ChallengesCapped {
		t.Fatalf("the decision log holds %d challenges, the capped fleet sent %d", logged, res.ChallengesCapped)
	}
}

func TestDiscussionShape(t *testing.T) {
	r := testRun(t)
	d := Discussion(r)
	// The whitelist assumption: the overwhelming majority of inbox mail
	// comes from known senders (paper: 94%).
	if d.InboxWhitelisted < 0.75 {
		t.Fatalf("inbox whitelisted = %v, want dominant", d.InboxWhitelisted)
	}
	if d.InboxChallenge > 0.25 {
		t.Fatalf("challenge-phase inbox share = %v, want small", d.InboxChallenge)
	}
	if d.InboxDigest > d.InboxChallenge {
		t.Fatal("digest share exceeds challenge+digest share")
	}
	// Delay >1 day affects a sliver of the inbox (paper: 0.6%).
	if d.DelayedOverDay > 0.1 {
		t.Fatalf("delayed >1d = %v, want tiny", d.DelayedOverDay)
	}
	// Most challenges are never solved (paper ~95%).
	if d.ChallengesUseless < 0.8 {
		t.Fatalf("useless challenges = %v, want ~0.95", d.ChallengesUseless)
	}
}

func TestSPFCategoryString(t *testing.T) {
	for c, want := range map[SPFCategory]string{
		SPFSolved: "solved", SPFDeliveredUnsolved: "delivered-unsolved",
		SPFBounced: "bounced", SPFExpired: "expired",
	} {
		if c.String() != want {
			t.Errorf("SPFCategory(%d) = %q, want %q", int(c), c.String(), want)
		}
	}
}
