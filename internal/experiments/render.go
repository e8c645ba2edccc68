package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/simnet"
	"repro/internal/whitelist"
)

// Artifacts are the artifacts drawn from one shared run, in paper
// order, each under its reproduce -only name.
var Artifacts = []struct {
	Name   string
	Render func(*Run) string
}{
	{"fig1", RenderLifecycle},
	{"table1", RenderGeneral},
	{"fig4a", RenderDeliveryStatus},
	{"fig4b", RenderCaptchaTries},
	{"ratios", RenderRatios},
	{"fig5", RenderCorrelations},
	{"fig6", RenderClustering},
	{"fig7", RenderDelayCDF},
	{"fig8", RenderSolveTime},
	{"fig9", RenderChurn},
	{"fig10", RenderDailyPending},
	{"fig11", RenderBlacklisting},
	{"fig12", RenderSPF},
	{"discussion", RenderDiscussion},
	{"ablations", RenderAblations},
}

// RenderAll runs every experiment driver against the run and renders
// every artifact of Artifacts as text, in paper order. The drivers only
// read the finished run, so the sections render concurrently and are
// joined in order afterwards.
func RenderAll(r *Run) string {
	out := make([]string, len(Artifacts))
	var wg sync.WaitGroup
	for i, a := range Artifacts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = a.Render(r)
		}()
	}
	wg.Wait()
	var b strings.Builder
	for _, s := range out {
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String()
}

// RenderLifecycle renders E1–E3 (Figure 1/2/3 + the §2 drop table).
func RenderLifecycle(r *Run) string {
	lc := Lifecycle(r)
	var b strings.Builder

	f := &report.Figure{Title: "Figure 1 — lifecycle per 1,000 MTA-IN emails (closed relays; paper: 757 dropped / 31 white / 4 black / 208 gray / 48 challenges)"}
	f.Addf("dropped at MTA : %7.1f", lc.Per1000.Dropped)
	f.Addf("white spool    : %7.1f", lc.Per1000.White)
	f.Addf("black spool    : %7.1f", lc.Per1000.Black)
	f.Addf("gray spool     : %7.1f", lc.Per1000.Gray)
	f.Addf("challenges sent: %7.1f", lc.Per1000.Challenges)
	b.WriteString(f.Render())
	b.WriteString("\n")

	t := &report.Table{
		Title:   "Section 2 drop-reason table (fraction of incoming; paper: 0.06% / 4.19% / 2.27% / 0.03% / 62.36%)",
		Headers: []string{"Reason", "Measured", "Paper"},
	}
	paper := map[core.MTAReason]string{
		core.Malformed:        "0.06%",
		core.Unresolvable:     "4.19%",
		core.NoRelay:          "2.27%",
		core.SenderRejected:   "0.03%",
		core.UnknownRecipient: "62.36%",
	}
	for _, reason := range []core.MTAReason{core.Malformed, core.Unresolvable, core.NoRelay, core.SenderRejected, core.UnknownRecipient} {
		t.AddRow(reason.String(), report.Percent(lc.DropReasons[reason]), paper[reason])
	}
	b.WriteString(t.Render())
	b.WriteString("\n")

	g := &report.Figure{Title: "Figure 3 — gray spool at the engine (paper: 54% dropped by filters, 28% challenged; open relays +9% challenges)"}
	g.AddBar("filter-dropped (closed)", lc.GrayBreakdown.FilterDropped)
	g.AddBar("challenged (closed)", lc.GrayBreakdown.Challenged)
	g.AddBar("held behind challenge", lc.GrayBreakdown.Suppressed)
	g.AddBar("null-sender quarantine", lc.GrayBreakdown.NullSender)
	g.AddBar("filter-dropped (open relay)", lc.OpenRelayGray.FilterDropped)
	g.AddBar("challenged (open relay)", lc.OpenRelayGray.Challenged)
	for _, n := range sortedKeys(lc.FilterShares) {
		g.Addf("  drop share %-14s %s", n, report.Bar(lc.FilterShares[n], 40))
	}
	b.WriteString(g.Render())
	return b.String()
}

// RenderGeneral renders E4 (Table 1).
func RenderGeneral(r *Run) string {
	g := General(r)
	t := &report.Table{
		Title:   "Table 1 — general statistics (simulated fleet)",
		Headers: []string{"Metric", "Value"},
	}
	t.AddRow("Number of Companies", g.Companies)
	t.AddRow("Open Relays", g.OpenRelays)
	t.AddRow("Users protected by CR", g.UsersProtected)
	t.AddRow("Total incoming emails", g.TotalIncoming)
	t.AddRow("Messages in the Gray spool", g.GraySpool)
	t.AddRow("Messages in the Black spool", g.BlackSpool)
	t.AddRow("Messages in the White spool", g.WhiteSpool)
	t.AddRow("Total Messages Dropped at MTA", g.DroppedAtMTA)
	t.AddRow("Challenges Sent", g.ChallengesSent)
	t.AddRow("Emails Whitelisted from digest", g.WhitelistedDigest)
	t.AddRow("Solved CAPTCHAs", g.SolvedCaptchas)
	t.AddRow("Dropped: reverse DNS filter", g.DroppedReverseDNS)
	t.AddRow("Dropped: RBL filter", g.DroppedRBL)
	t.AddRow("Dropped: Antivirus filter", g.DroppedAntivirus)
	t.AddRow("Total Dropped by filters", g.DroppedByFilters)
	t.AddRow("Held behind pending challenge", g.SpoolSuppressed)
	t.AddRow("Quarantine expired (30d)", g.QuarantineExpired)
	t.AddRow("Emails (per day)", fmt.Sprintf("%.0f", g.EmailsPerDay))
	t.AddRow("White spool (per day)", fmt.Sprintf("%.0f", g.WhitePerDay))
	t.AddRow("Challenges sent (per day)", fmt.Sprintf("%.0f", g.ChallengesPerDay))
	t.AddRow("Total company-days", g.TotalDays)
	return t.Render()
}

// RenderDeliveryStatus renders E5 (Figure 4a).
func RenderDeliveryStatus(r *Run) string {
	ds := DeliveryStatus(r)
	f := &report.Figure{Title: "Figure 4(a) — challenge delivery status (paper: 49% delivered; 71.7% of the rest bounced no-user; 94% of delivered never opened; ~4% solved)"}
	for _, s := range []simnet.ChallengeStatus{
		simnet.StatusDelivered, simnet.StatusBouncedNoUser, simnet.StatusBouncedNoDomain,
		simnet.StatusBouncedBlacklisted, simnet.StatusExpired, simnet.StatusPending,
	} {
		f.AddBar(s.String(), ds.Fractions[s])
	}
	f.Addf("")
	f.Addf("total challenges            %d", ds.Total)
	f.Addf("undelivered that are no-user bounces: %s (paper 71.7%%)", report.Percent(ds.BouncedNoUser))
	f.Addf("solved (of all challenges):           %s (paper ~4%%)", report.Percent(ds.SolvedFrac))
	f.Addf("never opened (of delivered):          %s (paper 94%%)", report.Percent(ds.NeverOpened))
	f.Addf("visited but not solved (of delivered): %s (paper 0.25%%)", report.Percent(ds.VisitedNotSolv))
	return f.Render()
}

// RenderCaptchaTries renders E6 (Figure 4b).
func RenderCaptchaTries(r *Run) string {
	ct := CaptchaTries(r)
	f := &report.Figure{Title: "Figure 4(b) — tries required to solve the CAPTCHA (paper: never more than five)"}
	for i, frac := range ct.Tries {
		f.AddBar(fmt.Sprintf("%d attempt(s)", i+1), frac)
	}
	f.Addf("solved: %d, max attempts observed: %d", ct.Solved, ct.MaxTries)
	return f.Render()
}

// RenderRatios renders E15 (§3 scalars).
func RenderRatios(r *Run) string {
	rt := ComputeRatios(r)
	t := &report.Table{
		Title:   "Section 3 scalar ratios",
		Headers: []string{"Ratio", "Measured", "Paper"},
	}
	t.AddRow("Reflection R at CR filter", report.Percent(rt.ReflectionCR), "19.3%")
	t.AddRow("Reflection R at MTA-IN", report.Percent(rt.ReflectionMTA), "4.8%")
	t.AddRow("Reflected traffic RT at CR", report.Percent(rt.ReflectedRT), "2.5%")
	t.AddRow("Incoming emails per challenge", fmt.Sprintf("%.1f", rt.EmailsPerChal), "~21")
	t.AddRow("Backscatter β at CR (worst case)", report.Percent(rt.BackscatterCR), "8.7%")
	t.AddRow("Backscatter β at MTA-IN", report.Percent(rt.BackscatterMTA), "2.1%")
	return t.Render()
}

// RenderCorrelations renders E7 (Figure 5).
func RenderCorrelations(r *Run) string {
	co := Correlations(r)
	var b strings.Builder
	t := &report.Table{
		Title:   "Figure 5 — correlations between per-company variables (paper: reflection uncorrelated with users/emails; small inverse with white%)",
		Headers: append([]string{""}, co.Matrix.Names...),
	}
	for i, name := range co.Matrix.Names {
		row := make([]interface{}, 0, len(co.Matrix.Names)+1)
		row = append(row, name)
		for j := range co.Matrix.Names {
			row = append(row, fmt.Sprintf("%+.2f", co.Matrix.R[i][j]))
		}
		t.AddRow(row...)
	}
	b.WriteString(t.Render())

	h := &report.Figure{Title: "Figure 5 (diagonal) — per-company variable ranges"}
	summarize := func(label string, vals []float64) {
		if len(vals) == 0 {
			return
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		h.Addf("%-12s min=%-10.3g mean=%-10.3g max=%-10.3g", label, slices.Min(vals), sum/float64(len(vals)), slices.Max(vals))
	}
	summarize("users", co.Users)
	summarize("emails/day", co.Emails)
	summarize("white%", co.WhitePct)
	summarize("reflection", co.Reflection)
	summarize("captcha%", co.CaptchaPct)
	b.WriteString("\n")
	b.WriteString(h.Render())
	return b.String()
}

// RenderClustering renders E8/E16 (Figure 6 + §4.1).
func RenderClustering(r *Run) string {
	cl := Clustering(r)
	f := &report.Figure{Title: "Figure 6 — spam campaign clustering (paper: 1,775 clusters, 28 with a solved challenge; low-similarity clusters ~31% bounced with 1-2 solves; high-similarity up to 97% solved)"}
	f.Addf("clusters found:               %d (sizes %d..%d)", cl.Stats.Clusters, cl.Stats.SmallestCluster, cl.Stats.LargestCluster)
	f.Addf("clusters with >=1 solve:      %d", cl.Stats.WithSolved)
	f.Addf("high sender similarity:       %d clusters, mean solved %s, mean bounced %s",
		cl.Stats.HighSim, report.Percent(cl.Stats.HighSimSolved), report.Percent(cl.Stats.HighSimBounced))
	f.Addf("low sender similarity:        %d clusters, mean solved %s, mean bounced %s",
		cl.Stats.LowSim, report.Percent(cl.Stats.LowSimSolved), report.Percent(cl.Stats.LowSimBounced))
	f.Addf("")
	f.Addf("spurious spam deliveries:     %d (%.2f per 10,000 challenges; paper ~1)",
		cl.SpuriousDeliveries, cl.SpuriousPerChallenge*10000)
	return f.Render()
}

// RenderDelayCDF renders E9 (Figure 7).
func RenderDelayCDF(r *Run) string {
	dc := DelayCDF(r)
	f := &report.Figure{Title: "Figure 7 — CDF of gray->white delivery delay (paper: 30% <5min, 50% <30min via captcha; digest 4h-3d)"}
	f.Addf("captcha-whitelisted (n=%d):", dc.Captcha.N())
	for _, cp := range []struct {
		label string
		mins  float64
	}{{"<5 min", 5}, {"<30 min", 30}, {"<1 h", 60}, {"<4 h", 240}, {"<1 day", 1440}, {"<3 days", 4320}} {
		f.Addf("  %-8s %s", cp.label, report.Bar(dc.Captcha.FractionBelow(cp.mins), 40))
	}
	f.Addf("digest-whitelisted (n=%d):", dc.Digest.N())
	for _, cp := range []struct {
		label string
		mins  float64
	}{{"<4 h", 240}, {"<1 day", 1440}, {"<2 days", 2880}, {"<3 days", 4320}} {
		f.Addf("  %-8s %s", cp.label, report.Bar(dc.Digest.FractionBelow(cp.mins), 40))
	}

	// The actual CDF curve, log-scaled in minutes like the paper's x-axis.
	curve := &report.Plot{
		Title: "captcha-whitelisting delay CDF (x: minutes, log scale; y: fraction)",
		Width: 64, Height: 10, XLog: true,
	}
	curve.AddSeries(dc.Captcha.Points(64))
	return f.Render() + "\n" + curve.Render()
}

// RenderSolveTime renders E10 (Figure 8).
func RenderSolveTime(r *Run) string {
	st := SolveTimeDist(r)
	f := &report.Figure{Title: "Figure 8 — time distribution of challenge solves (paper: unsolved after 4h likely stays unsolved)"}
	labels := []string{"<5 min", "5-30 min", "30-60 min", "1-4 h", "4-24 h", "1-3 days", ">=3 days"}
	for i, frac := range st.Hist.Fractions() {
		f.AddBar(labels[i], frac)
	}
	f.Addf("solves: %d; within 4 hours: %s", st.Solves, report.Percent(st.Under4HFrac))
	return f.Render()
}

// RenderChurn renders E11 (Figure 9).
func RenderChurn(r *Run) string {
	ch := WhitelistChurn(r)
	f := &report.Figure{Title: "Figure 9 — new whitelist entries per user per 60 days (paper: 51.1% / 29.5% / 12.6% / 4.8% / 1.6% / 0.4% / 0.1%)"}
	labels := []string{"1-10", "10-30", "30-60", "60-120", "120-240", "240-600", ">600"}
	for i, frac := range ch.Hist.Fractions() {
		f.AddBar(labels[i], frac)
	}
	f.Addf("")
	f.Addf("whitelists modified at least once: %d (window %d days)", ch.ModifiedUsers, ch.WindowDays)
	f.Addf("mean new entries per user per day: %.3f (paper 0.3)", ch.MeanNewPerUserDay)
	f.Addf("modified whitelists with >=1 entry/day: %s (paper 6.8%%)", report.Percent(ch.AtLeastOnePerDay))

	srcs := WhitelistSources(r)
	t := &report.Table{Title: "Whitelist additions by mechanism", Headers: []string{"Mechanism", "Entries"}}
	for _, s := range []whitelist.Source{whitelist.SourceChallenge, whitelist.SourceDigest, whitelist.SourceManual, whitelist.SourceOutbound, whitelist.SourceSeed} {
		t.AddRow(s.String(), srcs[s])
	}
	return f.Render() + "\n" + t.Render()
}

// RenderDailyPending renders E12 (Figure 10).
func RenderDailyPending(r *Run) string {
	ps := DailyPending(r)
	f := &report.Figure{Title: "Figure 10 — daily pending (digest size) for 3 archetype users"}
	for _, p := range ps {
		var spark strings.Builder
		for _, v := range p.Series {
			spark.WriteByte(sparkChar(v, p.Max))
		}
		f.Addf("%-28s mean=%5.1f max=%3d  %s", p.User, p.Mean, p.Max, spark.String())
	}
	return f.Render()
}

// sparkChar maps a value to a 5-level ASCII sparkline character.
func sparkChar(v, max int) byte {
	if max == 0 || v == 0 {
		return '_'
	}
	levels := []byte{'.', ':', '-', '=', '#'}
	i := (v*len(levels) - 1) / max
	if i >= len(levels) {
		i = len(levels) - 1
	}
	return levels[i]
}

// RenderBlacklisting renders E13 (Figure 11).
func RenderBlacklisting(r *Run) string {
	bl := Blacklisting(r)
	var b strings.Builder
	t := &report.Table{
		Title:   "Figure 11 — server blacklisting vs challenge volume (paper: no relationship; 75% never listed)",
		Headers: []string{"Company", "Challenges", "ListedFrac", "ListedDays", "SplitOut"},
	}
	for _, row := range bl.Rows {
		t.AddRow(row.Company, row.ChallengesSent,
			fmt.Sprintf("%.3f", row.ListedFraction),
			fmt.Sprintf("%.1f", row.ListedDays), row.SplitMTAOut)
	}
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "\nnever listed: %d/%d companies; corr(challenges, listing): pearson %+.3f, spearman %+.3f; trap hits = %d\n",
		bl.NeverListed, len(bl.Rows), bl.CorrSizeListing, bl.SpearmanSizeListing, bl.TrapHits)
	return b.String()
}

// RenderSPF renders E14 (Figure 12).
func RenderSPF(r *Run) string {
	sp := SPFWhatIf(r)
	f := &report.Figure{Title: "Figure 12 — offline SPF what-if over the gray spool (paper: removes ~2.5% of bad challenges at the cost of 0.25% of solved)"}
	for _, cat := range []SPFCategory{SPFSolved, SPFDeliveredUnsolved, SPFBounced, SPFExpired} {
		f.Addf("%-20s n=%-7d SPF-fail %s", cat.String(), sp.Totals[cat], report.Percent(sp.FailFrac[cat]))
	}
	f.Addf("")
	f.Addf("bad challenges removed: %s (paper 2.5%%)", report.Percent(sp.BadRemoved))
	f.Addf("solved challenges lost: %s (paper 0.25%%)", report.Percent(sp.SolvedLost))
	return f.Render()
}

// RenderAblations renders the DESIGN.md §5 ablations.
func RenderAblations(r *Run) string {
	ab := SplitAblation(r)
	f := &report.Figure{Title: "Ablation — split MTA-OUT (challenge IP separate from user-mail IP, §5.1)"}
	f.Addf("shared-IP companies: %d, user-mail IP ever listed: %s", ab.SharedCompanies, report.Percent(ab.SharedListedFrac))
	f.Addf("split-IP companies:  %d, user-mail IP ever listed: %s", ab.SplitCompanies, report.Percent(ab.SplitListedFrac))
	um := r.Fleet.Net.UserMailStats()
	f.Addf("outbound user mail: delivered=%d bounced-blacklisted=%d no-user=%d failed=%d",
		um[simnet.UserMailDelivered], um[simnet.UserMailBouncedBlacklisted],
		um[simnet.UserMailBouncedNoUser], um[simnet.UserMailFailed])
	return f.Render()
}
