// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure in the paper's evaluation (the E1..E16 index in
// DESIGN.md §3), plus the DESIGN.md §5 ablations.
//
// Each benchmark runs the corresponding experiment driver over a shared
// fleet simulation and reports the headline numbers via b.ReportMetric,
// so `go test -bench=. -benchmem` regenerates every artifact:
//
//	go test -bench=Fig1 -benchtime=1x .
//
// The expensive part — simulating the fleet — happens once per seed and
// is shared across benchmarks; the reported metrics are the same values
// cmd/reproduce prints (EXPERIMENTS.md records them against the paper).
package repro_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/experiments"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/reputation"
	"repro/internal/whitelist"
)

var (
	benchOnce sync.Once
	benchRun  *experiments.Run
)

// sharedRun simulates the benchmark fleet once.
func sharedRun(b *testing.B) *experiments.Run {
	b.Helper()
	benchOnce.Do(func() {
		benchRun = experiments.NewRun(experiments.Quick(42))
	})
	return benchRun
}

// BenchmarkFig1Lifecycle regenerates Figure 1 (lifecycle per 1,000
// MTA-IN emails) and the §2 drop-reason table. Paper: 757 dropped, 31
// white, 4 black, 208 gray, 48 challenges per 1,000.
func BenchmarkFig1Lifecycle(b *testing.B) {
	r := sharedRun(b)
	var lc experiments.LifecycleResult
	for i := 0; i < b.N; i++ {
		lc = experiments.Lifecycle(r)
	}
	b.ReportMetric(lc.Per1000.Dropped, "dropped/1000")
	b.ReportMetric(lc.Per1000.White, "white/1000")
	b.ReportMetric(lc.Per1000.Gray, "gray/1000")
	b.ReportMetric(lc.Per1000.Challenges, "challenges/1000")
}

// BenchmarkFig2MTAIn regenerates Figure 2 (MTA-IN treatment). Paper:
// >75% dropped; unknown recipient 62.36% of incoming.
func BenchmarkFig2MTAIn(b *testing.B) {
	r := sharedRun(b)
	var lc experiments.LifecycleResult
	for i := 0; i < b.N; i++ {
		lc = experiments.Lifecycle(r)
	}
	b.ReportMetric(lc.Per1000.Dropped/10, "%dropped")
	b.ReportMetric(lc.DropReasons[core.UnknownRecipient]*100, "%unknown-rcpt")
	b.ReportMetric(lc.DropReasons[core.Unresolvable]*100, "%unresolvable")
}

// BenchmarkFig3EngineCategories regenerates Figure 3 (gray-spool
// categorisation, closed vs open relay). Paper: 54% filter-dropped, 28%
// challenged; open relays +9% challenges.
func BenchmarkFig3EngineCategories(b *testing.B) {
	r := sharedRun(b)
	var lc experiments.LifecycleResult
	for i := 0; i < b.N; i++ {
		lc = experiments.Lifecycle(r)
	}
	b.ReportMetric(lc.GrayBreakdown.FilterDropped*100, "%gray-filtered")
	b.ReportMetric(lc.GrayBreakdown.Challenged*100, "%gray-challenged")
	b.ReportMetric(lc.OpenRelayGray.Challenged*100, "%gray-challenged-openrelay")
}

// BenchmarkTable1GeneralStats regenerates Table 1 (general statistics).
func BenchmarkTable1GeneralStats(b *testing.B) {
	r := sharedRun(b)
	var g experiments.GeneralStats
	for i := 0; i < b.N; i++ {
		g = experiments.General(r)
	}
	b.ReportMetric(float64(g.TotalIncoming), "incoming")
	b.ReportMetric(float64(g.ChallengesSent), "challenges")
	b.ReportMetric(float64(g.SolvedCaptchas), "solved")
	b.ReportMetric(float64(g.DroppedByFilters), "filter-drops")
}

// BenchmarkFig4aChallengeDelivery regenerates Figure 4(a) (challenge
// delivery status). Paper: 49% delivered; 71.7% of undelivered are
// no-user bounces; 94% of delivered never opened.
func BenchmarkFig4aChallengeDelivery(b *testing.B) {
	r := sharedRun(b)
	var ds experiments.DeliveryStatusResult
	for i := 0; i < b.N; i++ {
		ds = experiments.DeliveryStatus(r)
	}
	b.ReportMetric(ds.DeliveredFrac*100, "%delivered")
	b.ReportMetric(ds.BouncedNoUser*100, "%bounced-no-user")
	b.ReportMetric(ds.NeverOpened*100, "%never-opened")
	b.ReportMetric(ds.SolvedFrac*100, "%solved")
}

// BenchmarkFig4bCaptchaTries regenerates Figure 4(b) (attempts to solve
// the CAPTCHA). Paper: never more than five.
func BenchmarkFig4bCaptchaTries(b *testing.B) {
	r := sharedRun(b)
	var ct experiments.CaptchaTriesResult
	for i := 0; i < b.N; i++ {
		ct = experiments.CaptchaTries(r)
	}
	if len(ct.Tries) > 0 {
		b.ReportMetric(ct.Tries[0]*100, "%first-try")
	}
	b.ReportMetric(float64(ct.MaxTries), "max-tries")
}

// BenchmarkFig5Correlations regenerates Figure 5 (per-company
// correlation matrix). Paper: reflection uncorrelated with size.
func BenchmarkFig5Correlations(b *testing.B) {
	r := sharedRun(b)
	var co experiments.CorrelationResult
	for i := 0; i < b.N; i++ {
		co = experiments.Correlations(r)
	}
	if v, ok := co.Matrix.Get("users", "emails"); ok {
		b.ReportMetric(v, "corr-users-emails")
	}
	if v, ok := co.Matrix.Get("reflection", "users"); ok {
		b.ReportMetric(v, "corr-reflection-users")
	}
	if v, ok := co.Matrix.Get("reflection", "white"); ok {
		b.ReportMetric(v, "corr-reflection-white")
	}
}

// BenchmarkFig6SpamClustering regenerates Figure 6 (campaign clusters)
// and the §4.1 spurious-delivery rate (paper: ~1 per 10,000 challenges).
func BenchmarkFig6SpamClustering(b *testing.B) {
	r := sharedRun(b)
	var cl experiments.ClusteringResult
	for i := 0; i < b.N; i++ {
		cl = experiments.Clustering(r)
	}
	b.ReportMetric(float64(cl.Stats.Clusters), "clusters")
	b.ReportMetric(float64(cl.Stats.WithSolved), "clusters-with-solve")
	b.ReportMetric(cl.Stats.LowSimBounced*100, "%lowsim-bounced")
	b.ReportMetric(cl.SpuriousPerChallenge*10000, "spurious-per-10k")
}

// BenchmarkFig7WhitelistDelayCDF regenerates Figure 7 (delivery-delay
// CDFs). Paper: 30% <5min, 50% <30min for captcha-whitelisted.
func BenchmarkFig7WhitelistDelayCDF(b *testing.B) {
	r := sharedRun(b)
	var dc experiments.DelayCDFResult
	for i := 0; i < b.N; i++ {
		dc = experiments.DelayCDF(r)
	}
	b.ReportMetric(dc.CaptchaUnder5Min*100, "%captcha<5m")
	b.ReportMetric(dc.CaptchaUnder30Min*100, "%captcha<30m")
	b.ReportMetric(dc.DigestUnder3Days*100, "%digest<3d")
}

// BenchmarkFig8SolveTimeDist regenerates Figure 8 (solve-time
// distribution). Paper: challenges unsolved after 4h stay unsolved.
func BenchmarkFig8SolveTimeDist(b *testing.B) {
	r := sharedRun(b)
	var st experiments.SolveTimeResult
	for i := 0; i < b.N; i++ {
		st = experiments.SolveTimeDist(r)
	}
	b.ReportMetric(st.Under4HFrac*100, "%solved<4h")
	b.ReportMetric(float64(st.Solves), "solves")
}

// BenchmarkFig9WhitelistChurn regenerates Figure 9 (whitelist change
// rate). Paper: 51.1% of changed whitelists gained 1-10 entries/60d;
// mean churn 0.3 entries/user/day.
func BenchmarkFig9WhitelistChurn(b *testing.B) {
	r := sharedRun(b)
	var ch experiments.ChurnResult
	for i := 0; i < b.N; i++ {
		ch = experiments.WhitelistChurn(r)
	}
	fr := ch.Hist.Fractions()
	b.ReportMetric(fr[0]*100, "%bucket-1-10")
	b.ReportMetric(ch.MeanNewPerUserDay, "new-entries/user/day")
}

// BenchmarkFig10DailyPending regenerates Figure 10 (daily digest-size
// series for three archetype users).
func BenchmarkFig10DailyPending(b *testing.B) {
	r := sharedRun(b)
	var ps []experiments.PendingSeries
	for i := 0; i < b.N; i++ {
		ps = experiments.DailyPending(r)
	}
	if len(ps) == 3 {
		b.ReportMetric(ps[0].Mean, "heavy-user-mean")
		b.ReportMetric(ps[1].Mean, "median-user-mean")
		b.ReportMetric(ps[2].Mean, "light-user-mean")
	}
}

// BenchmarkFig11Blacklisting regenerates Figure 11 (server blacklisting
// vs challenge volume). Paper: 75% never listed; no correlation.
func BenchmarkFig11Blacklisting(b *testing.B) {
	r := sharedRun(b)
	var bl experiments.BlacklistResult
	for i := 0; i < b.N; i++ {
		bl = experiments.Blacklisting(r)
	}
	b.ReportMetric(float64(bl.NeverListed)/float64(len(bl.Rows))*100, "%never-listed")
	b.ReportMetric(bl.CorrSizeListing, "corr-size-listing")
	b.ReportMetric(float64(bl.TrapHits), "trap-hits")
}

// BenchmarkFig12SPFValidation regenerates Figure 12 (offline SPF
// what-if). Paper: removes ~2.5% of bad challenges, costs 0.25% of
// solved ones.
func BenchmarkFig12SPFValidation(b *testing.B) {
	r := sharedRun(b)
	var sp experiments.SPFResult
	for i := 0; i < b.N; i++ {
		sp = experiments.SPFWhatIf(r)
	}
	b.ReportMetric(sp.BadRemoved*100, "%bad-removed")
	b.ReportMetric(sp.SolvedLost*100, "%solved-lost")
}

// BenchmarkScalarRatios regenerates the §3 scalars: reflection ratio R
// (paper 19.3% / 4.8%), reflected traffic RT (2.5%), backscatter β
// (8.7% / 2.1%), one challenge per ~21 emails.
func BenchmarkScalarRatios(b *testing.B) {
	r := sharedRun(b)
	var rt experiments.Ratios
	for i := 0; i < b.N; i++ {
		rt = experiments.ComputeRatios(r)
	}
	b.ReportMetric(rt.ReflectionCR*100, "%R-at-CR")
	b.ReportMetric(rt.ReflectionMTA*100, "%R-at-MTA")
	b.ReportMetric(rt.ReflectedRT*100, "%RT")
	b.ReportMetric(rt.EmailsPerChal, "emails-per-challenge")
	b.ReportMetric(rt.BackscatterCR*100, "%beta-at-CR")
}

// BenchmarkDiscussionSummary regenerates the §6 summary scalars: inbox
// composition (paper: 94% pre-whitelisted), >1-day delay share (0.6%),
// and the useless-challenge fraction (~95%).
func BenchmarkDiscussionSummary(b *testing.B) {
	r := sharedRun(b)
	var d experiments.DiscussionResult
	for i := 0; i < b.N; i++ {
		d = experiments.Discussion(r)
	}
	b.ReportMetric(d.InboxWhitelisted*100, "%inbox-whitelisted")
	b.ReportMetric(d.DelayedOverDay*100, "%delayed>1d")
	b.ReportMetric(d.ChallengesUseless*100, "%challenges-useless")
}

// BenchmarkAblationSplitMTAOut measures the §5.1 design choice: split
// challenge/user-mail IPs shield user mail from listing.
func BenchmarkAblationSplitMTAOut(b *testing.B) {
	r := sharedRun(b)
	var ab experiments.SplitMTAOutAblation
	for i := 0; i < b.N; i++ {
		ab = experiments.SplitAblation(r)
	}
	b.ReportMetric(ab.SharedListedFrac*100, "%shared-mailip-listed")
	b.ReportMetric(ab.SplitListedFrac*100, "%split-mailip-listed")
}

// BenchmarkAblationFilters measures each auxiliary filter's marginal
// contribution by comparing fleets with one filter knocked out. The
// paper's Table 1 ordering (RBL > rDNS > AV drops) should hold.
func BenchmarkAblationFilters(b *testing.B) {
	r := sharedRun(b)
	var lc experiments.LifecycleResult
	for i := 0; i < b.N; i++ {
		lc = experiments.Lifecycle(r)
	}
	b.ReportMetric(lc.FilterShares["rbl"]*100, "%share-rbl")
	b.ReportMetric(lc.FilterShares["reverse-dns"]*100, "%share-rdns")
	b.ReportMetric(lc.FilterShares["antivirus"]*100, "%share-av")
}

// BenchmarkAblationSPFOnline runs the §5.2 configuration question as an
// online ablation: two identically-seeded fleets, one with the SPF
// filter in the engine chain. Paper (offline estimate): SPF removes
// ~2.5% of bad challenges at a 0.25% cost to solved ones.
func BenchmarkAblationSPFOnline(b *testing.B) {
	var res experiments.SPFOnlineResult
	for i := 0; i < b.N; i++ {
		res = experiments.SPFOnline(7, 6, 4)
	}
	b.ReportMetric(res.ChallengeReduction*100, "%challenge-reduction")
	b.ReportMetric(res.SolvedLost*100, "%solved-lost")
	b.ReportMetric(float64(res.SPFDrops), "spf-drops")
}

// BenchmarkAblationGreylist runs the greylisting ablation: an SMTP
// greylist in front of the engines cuts challenge volume (and therefore
// backscatter and trap exposure) because botnet cannons do not retry
// after a 451, while wanted mail is only delayed.
func BenchmarkAblationGreylist(b *testing.B) {
	var res experiments.GreylistResult
	for i := 0; i < b.N; i++ {
		res = experiments.GreylistAblation(7, 6, 4)
	}
	b.ReportMetric(res.ChallengeReduction*100, "%challenge-reduction")
	b.ReportMetric(float64(res.TrapHitsBaseline), "trap-hits-base")
	b.ReportMetric(float64(res.TrapHitsWithGrey), "trap-hits-grey")
}

// BenchmarkAblationRateCap measures the §6 attack mitigation: an hourly
// challenge cap bounds spamtrap exposure (and therefore blacklisting
// risk) at the cost of suppressing some legitimate challenges.
func BenchmarkAblationRateCap(b *testing.B) {
	var res experiments.RateCapResult
	for i := 0; i < b.N; i++ {
		res = experiments.RateCapAblation(7, 6, 4, 1)
	}
	b.ReportMetric(float64(res.ChallengesBaseline), "challenges-base")
	b.ReportMetric(float64(res.ChallengesCapped), "challenges-capped")
	b.ReportMetric(float64(res.TrapHitsBaseline), "trap-hits-base")
	b.ReportMetric(float64(res.TrapHitsCapped), "trap-hits-capped")
}

// BenchmarkSeedSensitivity runs three independently-seeded worlds and
// reports the cross-seed spread of the reflection ratio — the robustness
// analysis showing the reproduction's conclusions are mechanism-driven,
// not seed luck.
func BenchmarkSeedSensitivity(b *testing.B) {
	var s experiments.SensitivityResult
	for i := 0; i < b.N; i++ {
		s = experiments.Sensitivity(100, 3)
	}
	b.ReportMetric(s.Reflection.Mean()*100, "%R-mean")
	b.ReportMetric(s.Reflection.Std()*100, "%R-std")
	b.ReportMetric(s.NoUser.Mean()*100, "%nouser-mean")
}

// BenchmarkAblationReputation runs the sender-reputation ablation: two
// identically-seeded fleets, the second with per-company reputation
// stores feeding the adaptive filter stage. Reported: fast-path hit
// rate over the gray spool, probe invocations saved, and the challenge
// volume shift from dropping suspect senders before the probes.
func BenchmarkAblationReputation(b *testing.B) {
	var res experiments.ReputationResult
	for i := 0; i < b.N; i++ {
		res = experiments.ReputationAblation(7, 6, 4)
	}
	b.ReportMetric(res.FastPathRate*100, "%fast-path-of-gray")
	b.ReportMetric(float64(res.ProbesSaved), "probes-saved")
	b.ReportMetric(float64(res.ChallengesBaseline), "challenges-base")
	b.ReportMetric(float64(res.ChallengesWithRep), "challenges-rep")
	b.ReportMetric(float64(res.SuspectDrops), "suspect-drops")
}

// BenchmarkReputationLookup measures the lock-striped store under
// parallel readers: every goroutine scores senders spread across all
// shards, the contention profile of a busy MTA consulting reputation on
// every gray message.
func BenchmarkReputationLookup(b *testing.B) {
	clk := clock.NewSim(time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC))
	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	const nSenders = 4096
	senders := make([]mail.Address, nSenders)
	ips := make([]string, nSenders)
	for i := range senders {
		senders[i] = mail.MustParseAddress(fmt.Sprintf("s%04d@dom%02d.example", i, i%64))
		ips[i] = fmt.Sprintf("100.64.%d.%d", i/250, i%250+1)
		rep.Record(senders[i], ips[i], reputation.Delivered)
		rep.Record(senders[i], ips[i], reputation.Solved)
	}
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger goroutines across the key space so they collide on
		// shards the way independent SMTP sessions would.
		i := int(atomic.AddInt64(&next, 977))
		for pb.Next() {
			if _, err := rep.Lookup(senders[i%nSenders], ips[i%nSenders]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkEngineWithReputation measures the engine's gray-message path
// with the reputation fast path hot: concurrent deliveries from a
// trusted sender to rotating recipients, each skipping the probe chain.
func BenchmarkEngineWithReputation(b *testing.B) {
	clk := clock.NewSim(time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC))
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("letters.example", "198.51.100.5")
	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	eng := core.New(core.Config{
		Name:             "bench",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, filters.NewChain(
		filters.NewReputation(rep),
		filters.NewAntivirus(),
		filters.NewReverseDNS(dns),
	), whitelist.NewStore(clk), func(core.OutboundChallenge) {})
	eng.SetReputation(rep)
	const nUsers = 256
	users := make([]mail.Address, nUsers)
	for i := range users {
		users[i] = mail.MustParseAddress(fmt.Sprintf("u%03d@corp.example", i))
		eng.AddUser(users[i])
	}
	news := mail.MustParseAddress("news@letters.example")
	for i := 0; i < 4; i++ {
		rep.Record(news, "198.51.100.5", reputation.Solved)
	}
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(atomic.AddInt64(&next, 7841))
		for pb.Next() {
			msg := &mail.Message{
				ID:           mail.NewID("b"),
				EnvelopeFrom: news,
				Rcpt:         users[i%nUsers],
				Subject:      "weekly digest",
				Size:         4000,
				ClientIP:     "198.51.100.5",
				Received:     clk.Now(),
			}
			if v := eng.Receive(msg); v != core.Accepted {
				b.Fatalf("verdict %v", v)
			}
			i++
		}
	})
	b.StopTimer()
	m := eng.Metrics()
	if m.ReputationFastPath == 0 {
		b.Fatal("fast path never taken; benchmark is not measuring it")
	}
	b.ReportMetric(float64(m.ReputationFastPath)/float64(m.MTAIncoming)*100, "%fast-path")
}

// BenchmarkChallengeStatusAggregation measures the analysis pipeline
// itself (records scan) rather than the simulation.
func BenchmarkChallengeStatusAggregation(b *testing.B) {
	r := sharedRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Fleet.Net.DeliveryStats()
	}
}
