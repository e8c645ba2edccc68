package experiments

import (
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/whitelist"
	"repro/internal/workload"
)

// --- E8/E16: Figure 6 spam clustering + §4.1 spurious deliveries ---

// ClusteringResult is the Figure 6 aggregate plus the spurious-delivery
// rate (spam that slipped past the CR filter because an innocent user
// solved a misdirected challenge; paper: ~1 per 10,000 challenges).
type ClusteringResult struct {
	Stats cluster.Stats
	// SpuriousDeliveries counts spam messages delivered via a solved
	// challenge.
	SpuriousDeliveries int
	// SpuriousPerChallenge = SpuriousDeliveries / challenges sent.
	SpuriousPerChallenge float64
	// DSN cross-validation, meaningful when the run emitted DSNs
	// (RunConfig.EmitDSNs): TruthBounced counts challenges the
	// simulator bounced (omniscient truth); ObservedBounced counts
	// those whose ID a parsed inbound DSN named in a bounce event;
	// BounceAgreement is the fraction of
	// truth bounces the DSN loop reproduced. The paper's methodology is
	// log-derived, so the engines' own view must track truth.
	TruthBounced    int
	ObservedBounced int
	BounceAgreement float64
}

// Clustering computes E8 and E16 from the challenge records. With DSNs
// enabled, the per-item bounce flag comes from the engines' own DSN
// feedback (the bounce events a real deployment logs) and is
// cross-validated against simulator truth; without DSNs it comes from
// simulator truth directly. The observed set is every no-user,
// no-domain or blocklisted bounce event naming the challenged
// message, whether or not the engine still held it in quarantine: a
// DSN that arrives after a digest pick or delete is orphaned for the
// engine's counters but still says the challenge bounced.
func Clustering(r *Run) ClusteringResult {
	var out ClusteringResult
	recs := r.Fleet.Net.Records()
	items := make([]cluster.Item, 0, len(recs))
	for _, rec := range recs {
		truth := rec.Status.Bounced()
		bounced := truth
		if r.Cfg.EmitDSNs {
			bounced = r.bounced[rec.MsgID]
		}
		if truth {
			out.TruthBounced++
			if r.bounced[rec.MsgID] {
				out.ObservedBounced++
			}
		}
		items = append(items, cluster.Item{
			Subject: rec.Subject,
			Sender:  rec.To,
			Bounced: bounced,
			Solved:  rec.Solved,
		})
	}
	if out.TruthBounced > 0 {
		out.BounceAgreement = float64(out.ObservedBounced) / float64(out.TruthBounced)
	}
	minSize := cluster.MinSize
	// Scaled-down runs produce proportionally smaller campaigns; keep
	// the paper's >=10-word rule but scale the >=50-message threshold
	// with volume so the same campaigns qualify. The items clustered here
	// are challenge records, and engines deduplicate challenges per
	// sender, so cluster sizes grow sub-linearly in volume — scale the
	// threshold less than proportionally.
	if r.Cfg.VolumeScale < 1 {
		minSize = max(10, int(cluster.MinSize*r.Cfg.VolumeScale*3))
	}
	clusters := cluster.Build(items, minSize)
	out.Stats = cluster.Summarize(clusters)

	for _, id := range r.Fleet.Delayed().ChallengeIDs {
		if cls, ok := r.Fleet.Truth(id); ok && cls == workload.ClassSpam {
			out.SpuriousDeliveries++
		}
	}
	challenges := r.Aggregate().All.ChallengesSent
	if challenges > 0 {
		out.SpuriousPerChallenge = float64(out.SpuriousDeliveries) / float64(challenges)
	}
	return out
}

// --- E9: Figure 7 whitelisting-delay CDFs ---

// DelayCDFResult carries the two Figure 7 curves: delivery delay for
// challenge-solved messages and for digest-authorized messages.
type DelayCDFResult struct {
	Captcha *stats.CDF
	Digest  *stats.CDF
	// Checkpoint fractions at the paper's named thresholds.
	CaptchaUnder5Min  float64 // paper: ~0.30
	CaptchaUnder30Min float64 // paper: ~0.50
	CaptchaUnder4H    float64
	DigestUnder1Day   float64
	DigestUnder3Days  float64
}

// DelayCDF computes E9 from the deliveries the fleet's inbox sinks
// folded.
func DelayCDF(r *Run) DelayCDFResult {
	out := DelayCDFResult{Captcha: stats.NewCDF(), Digest: stats.NewCDF()}
	dd := r.Fleet.Delayed()
	for _, d := range dd.Challenge {
		out.Captcha.Add(d.Minutes())
	}
	for _, d := range dd.Digest {
		out.Digest.Add(d.Minutes())
	}
	out.CaptchaUnder5Min = out.Captcha.FractionBelow(5)
	out.CaptchaUnder30Min = out.Captcha.FractionBelow(30)
	out.CaptchaUnder4H = out.Captcha.FractionBelow(240)
	out.DigestUnder1Day = out.Digest.FractionBelow(24 * 60)
	out.DigestUnder3Days = out.Digest.FractionBelow(3 * 24 * 60)
	return out
}

// --- E10: Figure 8 solve-time distribution ---

// SolveTimeResult histograms challenge solve latency (issue -> solve).
type SolveTimeResult struct {
	Hist *stats.Histogram // buckets in minutes
	// Under4HFrac is the fraction of solves within four hours; the paper
	// observes that challenges unsolved after 4h likely stay unsolved.
	Under4HFrac float64
	Solves      int
}

// SolveTimeDist computes E10 from the challenge records.
func SolveTimeDist(r *Run) SolveTimeResult {
	h := stats.NewHistogram(5, 30, 60, 240, 24*60, 3*24*60)
	var under4h, total int
	for _, rec := range r.Fleet.Net.Records() {
		if !rec.Solved {
			continue
		}
		mins := rec.SolveDelay.Minutes()
		h.Add(mins)
		total++
		if mins <= 240 {
			under4h++
		}
	}
	out := SolveTimeResult{Hist: h, Solves: total}
	if total > 0 {
		out.Under4HFrac = float64(under4h) / float64(total)
	}
	return out
}

// --- E11: Figure 9 whitelist change rate ---

// ChurnResult is the Figure 9 histogram: distribution of per-user new
// whitelist entries over a 60-day window (seed entries excluded), plus
// the §4.3/§6 headline rates.
type ChurnResult struct {
	Hist *stats.Histogram // paper buckets: 1-10, 10-30, ..., >600
	// ModifiedUsers is how many whitelists changed at least once.
	ModifiedUsers int
	// MeanNewPerUserDay is the fleet-wide mean churn (paper: 0.3/day).
	MeanNewPerUserDay float64
	// AtLeastOnePerDay is the fraction of modified whitelists averaging
	// >=1 new entry/day (paper: 6.8%).
	AtLeastOnePerDay float64
	WindowDays       int
}

// WhitelistChurn computes E11 over the run's final min(60, Days) days.
func WhitelistChurn(r *Run) ChurnResult {
	days := min(r.Cfg.Days, 60)
	to := r.Fleet.Clk.Now()
	from := to.Add(-time.Duration(days) * 24 * time.Hour)

	h := stats.NewHistogram(10, 30, 60, 120, 240, 600)
	var modified, users, overOnePerDay int
	var totalNew int64
	for _, c := range r.Fleet.Companies {
		wl := c.Engine.Whitelists()
		for _, u := range r.Fleet.Users(c.Name) {
			users++
			n := wl.AdditionsBetween(u, from, to)
			totalNew += int64(n)
			if n == 0 {
				continue
			}
			modified++
			// The paper histograms new entries per 60 days; rescale
			// shorter runs to the 60-day equivalent.
			scaled := float64(n) * 60 / float64(days)
			h.Add(scaled)
			if float64(n)/float64(days) >= 1 {
				overOnePerDay++
			}
		}
	}
	out := ChurnResult{Hist: h, ModifiedUsers: modified, WindowDays: days}
	if users > 0 {
		out.MeanNewPerUserDay = float64(totalNew) / float64(users) / float64(days)
	}
	if modified > 0 {
		out.AtLeastOnePerDay = float64(overOnePerDay) / float64(modified)
	}
	return out
}

// WhitelistSources tallies fleet-wide whitelist additions by mechanism
// (challenge / digest / manual / outbound / seed) — the §2 "whitelisting
// process" decomposition used in Table 1.
func WhitelistSources(r *Run) map[whitelist.Source]int {
	out := make(map[whitelist.Source]int)
	for _, c := range r.Fleet.Companies {
		for src, n := range c.Engine.Whitelists().CountBySource() {
			out[src] += n
		}
	}
	return out
}

// --- E12: Figure 10 daily pending (digest size) series ---

// PendingSeries is one user's daily digest-size time series.
type PendingSeries struct {
	User   string
	Series []int
	Mean   float64
	Max    int
}

// DailyPending computes E12: it picks three archetype users as the paper
// does — one with consistently large digests, one mid-range, one small
// with spikes — and returns their series.
func DailyPending(r *Run) []PendingSeries {
	type cand struct {
		user mail.Address
		s    []int
	}
	var cands []cand
	for _, c := range r.Fleet.Companies {
		series := r.Fleet.DigestSeries(c.Name)
		for i, u := range r.Fleet.Users(c.Name) {
			s := series[i]
			if len(s) > 0 {
				cands = append(cands, cand{u, s})
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	mean := func(s []int) float64 {
		t := 0
		for _, v := range s {
			t += v
		}
		return float64(t) / float64(len(s))
	}
	sort.Slice(cands, func(i, j int) bool { return mean(cands[i].s) > mean(cands[j].s) })
	picks := []cand{cands[0]}
	if len(cands) > 2 {
		picks = append(picks, cands[len(cands)/2])
	}
	if len(cands) > 1 {
		picks = append(picks, cands[len(cands)-1])
	}
	var out []PendingSeries
	for _, p := range picks {
		out = append(out, PendingSeries{User: p.user.String(), Series: p.s, Mean: mean(p.s), Max: slices.Max(p.s)})
	}
	return out
}

// --- E7: Figure 5 per-company correlations ---

// CorrelationResult is the Figure 5 dataset: per-company values of the
// five variables plus their Pearson correlation matrix.
type CorrelationResult struct {
	Companies  []string
	Users      []float64
	Emails     []float64 // daily mean
	WhitePct   []float64
	Reflection []float64
	CaptchaPct []float64
	Matrix     *stats.CorrelationMatrix
}

// Correlations computes E7.
func Correlations(r *Run) CorrelationResult {
	var out CorrelationResult
	for _, c := range r.Fleet.Companies {
		m := c.Engine.Metrics()
		if m.MTAIncoming == 0 {
			continue
		}
		out.Companies = append(out.Companies, c.Name)
		out.Users = append(out.Users, float64(c.Engine.Users()))
		out.Emails = append(out.Emails, float64(m.MTAIncoming)/float64(r.Cfg.Days))
		reaching := m.SpoolWhite + m.SpoolBlack + m.SpoolGray
		whitePct, refl := 0.0, 0.0
		if reaching > 0 {
			whitePct = float64(m.SpoolWhite) / float64(reaching)
			refl = float64(m.ChallengesSent) / float64(reaching)
		}
		out.WhitePct = append(out.WhitePct, whitePct)
		out.Reflection = append(out.Reflection, refl)
		capPct := 0.0
		if recs := r.Fleet.Net.CompanyRecords(c.Name); len(recs) > 0 {
			solved := 0
			for _, rec := range recs {
				if rec.Solved {
					solved++
				}
			}
			capPct = float64(solved) / float64(len(recs))
		}
		out.CaptchaPct = append(out.CaptchaPct, capPct)
	}
	out.Matrix = stats.NewCorrelationMatrix(
		[]string{"users", "emails", "white", "reflection", "captcha"},
		[][]float64{out.Users, out.Emails, out.WhitePct, out.Reflection, out.CaptchaPct},
	)
	return out
}

// --- E4: Table 1 general statistics ---

// GeneralStats mirrors the paper's Table 1.
type GeneralStats struct {
	Companies         int
	OpenRelays        int
	UsersProtected    int
	TotalIncoming     int64
	GraySpool         int64
	BlackSpool        int64
	WhiteSpool        int64
	DroppedAtMTA      int64
	ChallengesSent    int64
	WhitelistedDigest int
	SolvedCaptchas    int
	DroppedReverseDNS int64
	DroppedRBL        int64
	DroppedAntivirus  int64
	DroppedByFilters  int64
	EmailsPerDay      float64
	WhitePerDay       float64
	ChallengesPerDay  float64
	TotalDays         int
	SpoolSuppressed   int64
	QuarantineExpired int64
}

// General computes E4.
func General(r *Run) GeneralStats {
	agg := r.Aggregate().All
	st := r.Fleet.Net.DeliveryStats()
	srcs := WhitelistSources(r)
	openRelays := 0
	users := 0
	for _, c := range r.Fleet.Companies {
		if r.Fleet.Profile(c.Name).OpenRelay {
			openRelays++
		}
		users += c.Engine.Users()
	}
	days := r.Cfg.Days
	return GeneralStats{
		Companies:         len(r.Fleet.Companies),
		OpenRelays:        openRelays,
		UsersProtected:    users,
		TotalIncoming:     agg.MTAIncoming,
		GraySpool:         agg.SpoolGray,
		BlackSpool:        agg.SpoolBlack,
		WhiteSpool:        agg.SpoolWhite,
		DroppedAtMTA:      agg.TotalMTADropped(),
		ChallengesSent:    agg.ChallengesSent,
		WhitelistedDigest: srcs[whitelist.SourceDigest],
		SolvedCaptchas:    st.Solved,
		DroppedReverseDNS: agg.FilterDropped["reverse-dns"],
		DroppedRBL:        agg.FilterDropped["rbl"],
		DroppedAntivirus:  agg.FilterDropped["antivirus"],
		DroppedByFilters:  agg.TotalFilterDropped(),
		EmailsPerDay:      float64(agg.MTAIncoming) / float64(days),
		WhitePerDay:       float64(agg.SpoolWhite) / float64(days),
		ChallengesPerDay:  float64(agg.ChallengesSent) / float64(days),
		TotalDays:         days * len(r.Fleet.Companies),
		SpoolSuppressed:   agg.ChallengeSuppressed,
		QuarantineExpired: agg.QuarantineExpired,
	}
}

// --- ablations ---

// SplitMTAOutAblation compares user-mail blacklisting exposure between
// split and shared MTA-OUT configurations (§5.1 design choice).
type SplitMTAOutAblation struct {
	SharedCompanies int
	SplitCompanies  int
	// UserMailBounceShared/Split: fraction of companies whose MailIP was
	// ever listed.
	SharedListedFrac float64
	SplitListedFrac  float64
}

// SplitAblation computes the §5.1 ablation.
func SplitAblation(r *Run) SplitMTAOutAblation {
	var out SplitMTAOutAblation
	var sharedListed, splitListed int
	for _, c := range r.Fleet.Companies {
		listed := r.Fleet.Checker.ListedFraction(c.MailIP) > 0
		if c.SplitMTAOut() {
			out.SplitCompanies++
			if listed {
				splitListed++
			}
		} else {
			out.SharedCompanies++
			if listed {
				sharedListed++
			}
		}
	}
	if out.SharedCompanies > 0 {
		out.SharedListedFrac = float64(sharedListed) / float64(out.SharedCompanies)
	}
	if out.SplitCompanies > 0 {
		out.SplitListedFrac = float64(splitListed) / float64(out.SplitCompanies)
	}
	return out
}
