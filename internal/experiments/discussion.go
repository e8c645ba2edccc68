package experiments

import (
	"slices"

	"repro/internal/core"
	"repro/internal/report"
)

// DiscussionResult computes the §6 summary figures — the numbers the
// paper distils for the "should you deploy CR?" debate:
//
//   - Whitelist assumptions: 94% (31/33) of inbox mail comes from already
//     whitelisted senders; only ~6% needed a challenge phase and ~2% a
//     manual digest pick.
//   - Delivery delay: the challenge phase concerns ~4.3% of incoming
//     inbox-bound mail; half of delayed messages arrive within 30
//     minutes; only ~0.6% wait more than a day.
//   - Challenge traffic: one challenge per ~21 incoming emails; most
//     challenges are useless (only ~5% solved) but a CR system without
//     useless challenges would itself be useless.
type DiscussionResult struct {
	// Inbox composition (fractions of delivered messages).
	InboxWhitelisted float64 // paper: 94%
	InboxChallenge   float64 // paper: ~6% (with digest)
	InboxDigest      float64 // paper: ~2%
	// Delay impact.
	DelayedOverDay float64 // fraction of inbox mail delayed >1 day (paper: 0.6%)
	DelayedMedian  float64 // median delay of non-instant deliveries, minutes
	// Challenge traffic.
	EmailsPerChallenge float64 // paper: ~21
	ChallengesUseless  float64 // unsolved fraction (paper: ~95%)
}

// Discussion computes the §6 aggregate.
func Discussion(r *Run) DiscussionResult {
	var out DiscussionResult
	delivered := r.Aggregate().All.Delivered
	white, chall, digest := delivered[core.ViaWhitelist], delivered[core.ViaChallenge], delivered[core.ViaDigest]
	total := white + chall + digest
	dd := r.Fleet.Delayed()
	delayed := make([]float64, 0, len(dd.Challenge)+len(dd.Digest))
	overDay := 0
	for _, d := range append(dd.Challenge, dd.Digest...) {
		mins := d.Minutes()
		delayed = append(delayed, mins)
		if mins > 24*60 {
			overDay++
		}
	}
	if total > 0 {
		out.InboxWhitelisted = float64(white) / float64(total)
		out.InboxChallenge = float64(chall+digest) / float64(total)
		out.InboxDigest = float64(digest) / float64(total)
		out.DelayedOverDay = float64(overDay) / float64(total)
	}
	if len(delayed) > 0 {
		out.DelayedMedian = median(delayed)
	}
	rt := ComputeRatios(r)
	out.EmailsPerChallenge = rt.EmailsPerChal
	ds := DeliveryStatus(r)
	out.ChallengesUseless = 1 - ds.SolvedFrac
	return out
}

// median returns the upper median of xs, leaving xs untouched.
func median(xs []float64) float64 {
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return cp[len(cp)/2]
}

// RenderDiscussion renders the §6 summary.
func RenderDiscussion(r *Run) string {
	d := Discussion(r)
	f := &report.Figure{Title: "Section 6 — discussion summary (paper: 94% of inbox pre-whitelisted; delay >1 day for 0.6%; 1 challenge per ~21 emails; ~95% of challenges useless)"}
	f.Addf("inbox from whitelisted senders:   %s (paper 94%%)", report.Percent(d.InboxWhitelisted))
	f.Addf("inbox via challenge or digest:    %s (paper ~6%%)", report.Percent(d.InboxChallenge))
	f.Addf("inbox via digest alone:           %s (paper ~2%%)", report.Percent(d.InboxDigest))
	f.Addf("inbox delayed more than a day:    %s (paper 0.6%%)", report.Percent(d.DelayedOverDay))
	f.Addf("median delay of delayed mail:     %.0f minutes (paper: half under 30)", d.DelayedMedian)
	f.Addf("incoming emails per challenge:    %.1f (paper ~21)", d.EmailsPerChallenge)
	f.Addf("challenges never solved:          %s (paper ~95%%)", report.Percent(d.ChallengesUseless))
	return f.Render()
}
