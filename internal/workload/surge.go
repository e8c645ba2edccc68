package workload

// Overload/surge machinery: when Config.Overload is set, every message
// passes the company's admission controller before Engine.Receive. Shed
// mail is never dropped by the filter — it is tempfailed (the SMTP 451
// the live gateway sends) and the sender's MTA model decides whether it
// retries: real mail servers always do, fire-and-forget botnet cannons
// mostly do not. That asymmetry is the whole point of the fail-safe
// shed policy (and the same one greylisting exploits): under a 10×
// campaign burst the controller sheds aggressively, spam evaporates,
// and every piece of ham arrives once the surge passes.

import (
	"time"

	"repro/internal/mail"
	"repro/internal/overload"
)

// SurgeBurst is one scheduled traffic burst: starting at Hour on Day
// (simulation-relative, 0-based) and lasting Hours, each company's
// hourly injection is topped up with extra botnet spam so total volume
// reaches roughly Intensity× the profile baseline.
type SurgeBurst struct {
	Day   int
	Hour  int
	Hours int // window length in hours (0 means 1)
	// Intensity is the total-volume multiplier; 10 models the paper-scale
	// campaign burst. Values <= 1 inject nothing extra.
	Intensity float64
}

// covers reports whether the burst window contains (day, hour).
func (b SurgeBurst) covers(day, hour int) bool {
	h := day*24 + hour
	start := b.Day*24 + b.Hour
	n := b.Hours
	if n <= 0 {
		n = 1
	}
	return h >= start && h < start+n
}

// burstExtra returns how many extra spam messages to inject on top of a
// base-sized hourly batch.
func (f *Fleet) burstExtra(day, hour, base int) int {
	extra := 0
	for _, b := range f.Cfg.SurgeBursts {
		if b.covers(day, hour) && b.Intensity > 1 {
			extra += int(float64(base) * (b.Intensity - 1))
		}
	}
	return extra
}

// laneSurgeStats is the lane-local shed/retry ledger. Everything here
// is written on the lane goroutine and summed in canonical lane order
// by OverloadStats, so the totals are worker-count invariant.
type laneSurgeStats struct {
	hamShedMsgs  int64 // distinct ham messages shed at least once
	hamRecovered int64 // of those, re-admitted on a later retry
	hamDropped   int64 // ham abandoned after a shed (must stay zero)
	spamDropped  int64 // bot mail that never retried its 451
	retries      int64 // redelivery attempts scheduled after sheds
}

// shedRetrySchedule is the compliant-MTA redelivery ladder after a 451:
// standard queue-runner spacing, jittered per attempt, repeating the
// last rung until delivery. It always outlasts a burst window, which is
// what makes "shed ham is delayed, never lost" structural.
var shedRetrySchedule = []time.Duration{
	15 * time.Minute, 30 * time.Minute, time.Hour,
	2 * time.Hour, 4 * time.Hour, 8 * time.Hour,
}

// admitAndDeliver routes one message through the lane's admission
// controller. attempt counts prior sheds of this same message.
func (f *Fleet) admitAndDeliver(ln *companyLane, msg *mail.Message, class Class, attempt int) {
	ctl := ln.ctl
	out := ctl.Submit(msg.ID,
		func(g *overload.Grant, _ time.Duration) {
			f.serveAdmitted(ln, msg, class, attempt, g)
		},
		func(overload.Reason) {
			f.shedTempfail(ln, msg, class, attempt)
		},
	)
	switch {
	case out.Granted != nil:
		f.serveAdmitted(ln, msg, class, attempt, out.Granted)
	case out.Queued:
		// Lazy expiry only runs on Submit/Release traffic; in virtual
		// time a lull after the burst would park expired tickets
		// forever, so pin this enqueue's deadline with an explicit
		// Expire just past it.
		ln.sched.After(ctl.QueueDeadline()+time.Millisecond, ctl.Expire)
	default:
		f.shedTempfail(ln, msg, class, attempt)
	}
}

// serveAdmitted holds the grant for the injected service latency (the
// lane injector's "surge" target; zero without a fault plan), then
// delivers and releases, which admits the next queued message.
func (f *Fleet) serveAdmitted(ln *companyLane, msg *mail.Message, class Class, attempt int, g *overload.Grant) {
	svc := ln.faults.Decide("surge", 0).Latency
	deliver := func() {
		msg.Received = ln.clk.Now()
		f.deliverNow(ln, msg, class, attempt)
		g.Release()
	}
	if svc <= 0 {
		deliver()
		return
	}
	ln.sched.After(svc, deliver)
}

// shedTempfail models the sender's reaction to the admission 451. Real
// MTAs (whitelisted correspondents, new humans, newsletters, bounce
// sources, even blacklisted-but-real senders) requeue and retry until
// delivered; botnet cannons retry with SpamRetryProb and otherwise
// abandon the message.
func (f *Fleet) shedTempfail(ln *companyLane, msg *mail.Message, class Class, attempt int) {
	st := &ln.surgeStats
	ham := class.Wanted()
	if ham && attempt == 0 {
		st.hamShedMsgs++
	}
	realMTA := ham || class == ClassBlack || class == ClassNullSender
	if !realMTA && ln.rng.Float64() >= f.Cfg.SpamRetryProb {
		if ham {
			st.hamDropped++ // structurally unreachable; counted so the invariant is checked, not assumed
		} else {
			st.spamDropped++
		}
		ln.free.put(msg)
		return
	}
	st.retries++
	idx := min(attempt, len(shedRetrySchedule)-1)
	delay := shedRetrySchedule[idx] + time.Duration(ln.rng.Int63n(int64(5*time.Minute)))
	ln.sched.After(delay, func() {
		f.admitAndDeliver(ln, msg, class, attempt+1)
	})
}

// OverloadStats aggregates the fleet's admission controllers plus the
// workload-side shed/retry ledger, in canonical lane order.
type OverloadStats struct {
	// Ctl is the merged controller metrics (sheds by reason, admission
	// counts, max queue depth, delay histogram).
	Ctl overload.Metrics
	// HamShed counts distinct wanted messages tempfailed at least once.
	HamShed int64
	// HamRecovered counts shed ham re-admitted on a later retry.
	HamRecovered int64
	// HamOutstanding is shed ham still sitting on a retry timer when the
	// run ended — delayed past the horizon, not lost.
	HamOutstanding int64
	// HamDropped is ham abandoned after a shed. The fail-safe contract
	// makes this impossible; experiments assert it is zero.
	HamDropped int64
	// SpamDropped is bot mail that never retried its 451.
	SpamDropped int64
	// Retries is the number of post-shed redelivery attempts scheduled.
	Retries int64
}

// OverloadStats returns the aggregated admission/shed accounting (zero
// value when Config.Overload is unset).
func (f *Fleet) OverloadStats() OverloadStats {
	var st OverloadStats
	first := true
	for _, ln := range f.lanes {
		if ln.ctl == nil {
			continue
		}
		m := ln.ctl.Metrics()
		if first {
			st.Ctl = m
			first = false
		} else {
			st.Ctl.Merge(m)
		}
		st.HamShed += ln.surgeStats.hamShedMsgs
		st.HamRecovered += ln.surgeStats.hamRecovered
		st.HamDropped += ln.surgeStats.hamDropped
		st.SpamDropped += ln.surgeStats.spamDropped
		st.Retries += ln.surgeStats.retries
	}
	st.HamOutstanding = st.HamShed - st.HamRecovered - st.HamDropped
	return st
}
