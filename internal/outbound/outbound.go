// Package outbound implements the MTA-OUT side of a live CR deployment:
// a delivery queue that renders challenge emails and pushes them to a
// next-hop SMTP server (smarthost), with the retry/expiry schedule of a
// conventional mail queue.
//
// In the paper's installations this is the component whose IP address
// ends up on blocklists (§5.1) — it is the server that "sends the
// challenges". cmd/crserver wires it to a real smarthost; the simulation
// uses internal/simnet instead (same queue semantics, virtual time).
//
// Two robustness layers ride on the basic queue:
//
//   - Durability: the spool (internal/spool) is the queue. Every state
//     transition (enqueue / attempt / sent / bounced / expired) is
//     journalled into the WAL and folded into the spool in one step,
//     and each Flush takes its candidates from the spool's pending
//     items, so a crash between gray-spool accept and smarthost handoff
//     loses zero acked challenges: store.Recover rebuilds the pending
//     spool, and a queue built over it delivers them on its next Flush.
//   - Per-destination-domain isolation: each destination domain gets
//     its own health ledger (a consecutive-failure circuit breaker and
//     an independent retry ladder), so one dead or RBL-listed
//     destination MX cannot starve retries or head-of-line-block
//     delivery to healthy domains.
//
// Items and domains both retry on resilience.MTARetrySchedule: an item
// expires after len(MTARetrySchedule)+1 attempts, and after k
// consecutive domain-level failures the whole domain waits the k-th rung
// (capped at the last) before its next batch. Each domain's breaker
// takes resilience.DefaultBreakerConfig.
package outbound

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mail"
	"repro/internal/resilience"
	"repro/internal/smtp"
	"repro/internal/spool"
	"repro/internal/wal"
)

// Status is the delivery state of a queued challenge: the spool's own
// lifecycle status.
type Status = spool.Status

// Queue item states.
const (
	// StatusQueued: waiting for the next delivery attempt.
	StatusQueued = spool.StatusQueued
	// StatusSent: accepted by the smarthost.
	StatusSent = spool.StatusSent
	// StatusBounced: permanently rejected (5xx).
	StatusBounced = spool.StatusBounced
	// StatusExpired: retries exhausted.
	StatusExpired = spool.StatusExpired
)

// Error classes, recorded with each failed attempt (spool.Item.LastClass
// and the journalled record's Origin), so an expired challenge shows
// which error class exhausted its retries.
const (
	// ClassTempfail: the smarthost answered 4xx (transient rejection).
	ClassTempfail = "tempfail"
	// ClassPermfail: the smarthost answered 5xx (permanent rejection).
	ClassPermfail = "permfail"
	// ClassConnection: the session itself failed (dial, I/O, injected
	// outage) before an SMTP verdict was reached.
	ClassConnection = "connection"
)

// Dialer opens an SMTP session to the smarthost. Tests substitute an
// in-memory implementation.
type Dialer func() (*smtp.Client, error)

// Config parameterises a Queue.
type Config struct {
	// Dial opens the smarthost connection; required.
	Dial Dialer
	// HeloDomain is announced on each session.
	HeloDomain string
	// Injector is an optional fault source consulted on the smarthost
	// path. Target "smarthost-dial" is decided once per session before
	// the dial and any fault fails the whole session; target "smarthost"
	// is decided per item — tempfail synthesizes a 421, other faults
	// surface as connection errors. A "smarthost*" rule covers both.
	// Target "domain:<name>" is decided per item for the destination
	// domain and fails only that domain (the dark-MX scenario).
	Injector faults.Injector
	// MaxQueued bounds how many pending challenges a Flush considers:
	// the MaxQueued oldest in spool order. The rest are deferred, not
	// dropped: they stay in the spool and move up as older challenges
	// reach their fate. 0 means unbounded.
	MaxQueued int
	// Now supplies timestamps; nil = time.Now.
	Now func() time.Time

	// Spool is the durable fold of the queue's journalled transitions
	// and the queue's only per-challenge state: challenges already
	// pending in it (a recovered spool) are delivered by the next Flush.
	// nil allocates a private in-memory one; pass the store-registered
	// State to make it part of snapshots and recovery.
	Spool *spool.State
	// Journal appends one WAL record and returns its LSN (0 = dropped).
	// Wire it to (*wal.Journal).Emit; nil runs the spool unjournalled.
	Journal func(wal.Record) uint64
}

// domainLedger is the per-destination-domain health state: the circuit
// breaker, the domain-level retry ladder position, and fate counters.
type domainLedger struct {
	breaker    *resilience.Breaker
	failStreak int
	retryAt    time.Time
	lastError  string
	sent       int64
	bounced    int64
	expired    int64
}

// DomainStats is the exported health of one destination domain.
type DomainStats struct {
	Domain     string
	Queued     int
	Sent       int64
	Bounced    int64
	Expired    int64
	Breaker    resilience.BreakerStats
	FailStreak int
	RetryAt    time.Time
	LastError  string
}

// nowClock adapts Config.Now to clock.Clock for the breakers.
type nowClock struct{ f func() time.Time }

func (c nowClock) Now() time.Time { return c.f() }

// Queue is the outbound challenge queue. Enqueue is cheap; Flush drives
// delivery (call it from a ticker or after Enqueue for immediate mode).
type Queue struct {
	cfg Config
	rec *spool.Recorder

	// flushMu serializes flushes for their whole length: the spool marks
	// nothing as in flight, so two overlapping flushes would each send
	// the same pending challenge.
	flushMu sync.Mutex
	// mu guards domains, which DomainStats reads while a flush runs.
	mu      sync.Mutex
	domains map[string]*domainLedger
}

// NewQueue returns a queue over cfg.Spool.
func NewQueue(cfg Config) *Queue {
	if cfg.Dial == nil {
		panic("outbound: Config.Dial is required")
	}
	if cfg.HeloDomain == "" {
		cfg.HeloDomain = "cr.invalid"
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Spool == nil {
		cfg.Spool = spool.NewState()
	}
	q := &Queue{cfg: cfg, domains: make(map[string]*domainLedger)}
	q.rec = &spool.Recorder{State: cfg.Spool, Emit: cfg.Journal}
	return q
}

// JournalDropped reports how many transitions lost their journal append
// (fault injection or append failure) and were applied fail-open.
func (q *Queue) JournalDropped() int { return q.rec.Dropped() }

// toSpool converts a challenge to its durable form.
func toSpool(ch core.OutboundChallenge) spool.Challenge {
	return spool.Challenge{
		MsgID:   ch.MsgID,
		Token:   ch.Token,
		From:    ch.From,
		To:      ch.To,
		Subject: ch.Subject,
		URL:     ch.URL,
		Size:    ch.Size,
		Issued:  ch.Issued,
	}
}

// ledgerLocked returns (creating if needed) the ledger for domain.
// Caller holds q.mu.
func (q *Queue) ledgerLocked(domain string) *domainLedger {
	led, ok := q.domains[domain]
	if !ok {
		led = &domainLedger{
			breaker: resilience.NewBreaker(domain, resilience.DefaultBreakerConfig(), nowClock{q.cfg.Now}),
		}
		q.domains[domain] = led
	}
	return led
}

// Enqueue adds a challenge for delivery on the next Flush, journalling
// it first so an acked challenge survives a crash. Beyond MaxQueued
// pending challenges it is deferred — it waits its turn, it is never
// dropped.
func (q *Queue) Enqueue(ch core.OutboundChallenge) {
	q.rec.Enqueue(q.cfg.Now(), toSpool(ch))
}

// split divides n pending challenges into the ones a Flush considers
// and the deferred rest.
func (q *Queue) split(n int) (active, deferred int) {
	if q.cfg.MaxQueued > 0 && n > q.cfg.MaxQueued {
		return q.cfg.MaxQueued, n - q.cfg.MaxQueued
	}
	return n, 0
}

// Deferred reports how many pending challenges wait beyond MaxQueued.
func (q *Queue) Deferred() int {
	_, deferred := q.split(q.cfg.Spool.Len())
	return deferred
}

// SpoolDepth reports the number of undelivered challenges the queue is
// responsible for: the spool's pending items, deferred ones included.
func (q *Queue) SpoolDepth() int { return q.cfg.Spool.Len() }

// Sender returns a core.ChallengeSender that enqueues.
func (q *Queue) Sender() core.ChallengeSender {
	return func(ch core.OutboundChallenge) { q.Enqueue(ch) }
}

// RenderChallenge builds the RFC 5322 body of a challenge email: the
// text a real sender reads, with the CAPTCHA URL to open.
func RenderChallenge(ch spool.Challenge) string {
	h := mail.NewHeaders()
	h.Set("From", ch.From.String())
	h.Set("To", ch.To.String())
	h.Set("Subject", "Please confirm your message ("+ch.MsgID+")")
	h.Set("Auto-Submitted", "auto-replied")
	h.Set("X-CR-Token", ch.Token)
	h.Set("MIME-Version", "1.0")
	h.Set("Content-Type", "text/plain; charset=utf-8")
	body := "Your message is being held by a challenge-response spam filter.\r\n" +
		"To deliver it, please confirm you are human by visiting:\r\n\r\n    " +
		ch.URL + "\r\n\r\n" +
		"You only need to do this once; future messages will be delivered\r\n" +
		"immediately. If you did not send a message, you can ignore this\r\n" +
		"email.\r\n"
	return h.Render() + body
}

// Flush attempts delivery of every due pending challenge over a single
// smarthost session. It returns the number of challenges that reached a
// terminal state (sent, bounced, expired). Transient errors reschedule
// per the retry schedule; dial failures leave the spool untouched for
// the next Flush. Flushes are serialized: a Flush that overlaps another
// waits for it.
func (q *Queue) Flush() (terminal int, err error) {
	return q.flush(false)
}

// FlushAll is Flush ignoring retry timers and domain-ladder waits:
// every considered challenge is attempted now (open breakers still
// refuse their domain — a dark MX stays dark even during drain). The
// graceful-drain path uses it so a shutdown does not strand challenges
// waiting on a backoff schedule.
func (q *Queue) FlushAll() (terminal int, err error) {
	return q.flush(true)
}

// domGroup is one destination domain's batch of a flush.
type domGroup struct {
	domain   string
	led      *domainLedger
	items    []*spool.Item
	probed   bool // breaker was half-open when admitted: exactly one probe item
	recorded bool // at least one item outcome was Recorded on the breaker
}

func (q *Queue) flush(ignoreSchedule bool) (terminal int, err error) {
	q.flushMu.Lock()
	defer q.flushMu.Unlock()
	now := q.cfg.Now()
	// The items are copies of the MaxQueued oldest: this flush updates
	// them as it records each outcome through the Recorder, which folds
	// the same transition into the spool.
	pending := q.cfg.Spool.Pending(q.cfg.MaxQueued)
	perDomain := make(map[string][]*spool.Item)
	for i := range pending {
		it := &pending[i]
		if !ignoreSchedule && it.NextTry.After(now) {
			continue
		}
		d := it.Challenge.To.Domain
		perDomain[d] = append(perDomain[d], it)
	}
	names := make([]string, 0, len(perDomain))
	for d := range perDomain {
		names = append(names, d)
	}
	sort.Strings(names)
	var groups []*domGroup
	q.mu.Lock()
	for _, d := range names {
		led := q.ledgerLocked(d)
		if !ignoreSchedule && now.Before(led.retryAt) {
			continue
		}
		if !led.breaker.Allow() {
			continue
		}
		g := &domGroup{domain: d, led: led, items: perDomain[d]}
		if led.breaker.State() == resilience.HalfOpen {
			g.probed = true
			g.items = g.items[:1]
		}
		groups = append(groups, g)
	}
	q.mu.Unlock()
	if len(groups) == 0 {
		return 0, nil
	}

	// releaseProbes re-opens the breaker of any admitted half-open
	// domain whose probe item never reached an outcome because the
	// whole session failed — otherwise the claimed probe slot would
	// wedge the breaker in half-open forever.
	releaseProbes := func(sessionErr error) {
		for _, g := range groups {
			if g.probed && !g.recorded {
				g.led.breaker.Record(sessionErr)
			}
		}
	}

	if inj := q.cfg.Injector; inj != nil {
		// Session-level faults surface before the dial, under their own
		// target: consulting "smarthost" here would count (and burn an RNG
		// draw on) per-item tempfail rules whose decision is then ignored.
		if d := inj.Decide("smarthost-dial", 0); d.Err != nil {
			releaseProbes(d.Err)
			return 0, fmt.Errorf("outbound: dial smarthost: %w", d.Err)
		}
	}
	client, err := q.cfg.Dial()
	if err != nil {
		releaseProbes(err)
		return 0, fmt.Errorf("outbound: dial smarthost: %w", err)
	}
	defer client.Close()
	if err := client.Hello(q.cfg.HeloDomain); err != nil {
		releaseProbes(err)
		return 0, fmt.Errorf("outbound: HELO: %w", err)
	}

	for _, g := range groups {
		for _, it := range g.items {
			var sendErr error
			domainFault := false
			if inj := q.cfg.Injector; inj != nil {
				if d := inj.Decide("domain:"+g.domain, 0); d.Kind == faults.KindTempfail {
					sendErr = &smtp.Reply{Code: 451, Text: "destination unavailable"}
					domainFault = true
				} else if d.Err != nil {
					sendErr = d.Err
					domainFault = true
				} else if d := inj.Decide("smarthost", 0); d.Kind == faults.KindTempfail {
					sendErr = &smtp.Reply{Code: 421, Text: "service temporarily unavailable"}
				} else if d.Err != nil {
					sendErr = d.Err
				}
			}
			if sendErr == nil {
				sendErr = client.SendMail(it.Challenge.From, []mail.Address{it.Challenge.To}, RenderChallenge(it.Challenge))
			}
			it.Attempts++
			outcome := sendErr // what the domain's ledger records
			reply, isReply := sendErr.(*smtp.Reply)
			switch {
			case sendErr == nil:
				it.Status = StatusSent
				q.rec.Terminal(now, it.Challenge.MsgID, it.Status, it.LastClass, it.LastError, it.Attempts)
			case isReply && !reply.Temporary():
				it.LastClass = ClassPermfail
				it.LastError = ClassPermfail + ": " + reply.Error()
				it.Status = StatusBounced
				q.rec.Terminal(now, it.Challenge.MsgID, it.Status, it.LastClass, it.LastError, it.Attempts)
				// A permanent rejection is a definitive answer from a
				// live path — the domain is healthy, the mailbox is not.
				outcome = nil
			case isReply:
				q.fail(it, ClassTempfail, reply, now)
			default:
				q.fail(it, ClassConnection, sendErr, now)
			}
			if it.Status != StatusQueued {
				terminal++
			}
			q.mu.Lock()
			q.domainOutcomeLocked(g, it, now, outcome)
			q.mu.Unlock()
			if isReply {
				// The session survives SMTP-level rejections; reset the
				// transaction for the next item.
				_ = client.Reset()
			} else if sendErr != nil && !domainFault {
				// Smarthost-session failure: stop the whole flush,
				// release any untested half-open probes, retry later.
				releaseProbes(sendErr)
				return terminal, fmt.Errorf("outbound: session lost: %w", sendErr)
			}
			if domainFault {
				// The destination is failing, not the smarthost: skip the
				// rest of this domain's batch and move on to the next
				// domain — this is exactly the head-of-line block the
				// per-domain ledgers exist to prevent.
				break
			}
		}
	}
	_ = client.Quit()
	return terminal, nil
}

// fail records a failed attempt of class: a retry on the schedule, or
// the expiry it causes once the attempts run out. Each is journalled.
func (q *Queue) fail(it *spool.Item, class string, err error, now time.Time) {
	it.LastClass = class
	it.LastError = class + ": " + err.Error()
	idx := it.Attempts - 1
	if idx >= len(resilience.MTARetrySchedule) {
		it.Status = StatusExpired
		q.rec.Terminal(now, it.Challenge.MsgID, it.Status, it.LastClass, it.LastError, it.Attempts)
		return
	}
	it.NextTry = now.Add(resilience.MTARetrySchedule[idx])
	q.rec.Attempt(now, it.Challenge.MsgID, it.LastClass, it.LastError, it.Attempts, it.NextTry)
}

// domainOutcomeLocked feeds one item outcome into its domain's ledger:
// the circuit breaker, the domain retry ladder and the fate counters.
// Caller holds q.mu.
func (q *Queue) domainOutcomeLocked(g *domGroup, it *spool.Item, now time.Time, outcome error) {
	led := g.led
	g.recorded = true
	led.breaker.Record(outcome)
	if outcome == nil {
		led.failStreak = 0
		led.retryAt = time.Time{}
		led.lastError = ""
	} else {
		led.failStreak++
		idx := led.failStreak - 1
		if idx >= len(resilience.MTARetrySchedule) {
			idx = len(resilience.MTARetrySchedule) - 1
		}
		led.retryAt = now.Add(resilience.MTARetrySchedule[idx])
		led.lastError = it.LastError
	}
	switch it.Status {
	case StatusSent:
		led.sent++
	case StatusBounced:
		led.bounced++
	case StatusExpired:
		led.expired++
	}
}

// Stats counts challenges per state: the spool's terminal fates, and as
// StatusQueued its pending challenges that are not deferred.
func (q *Queue) Stats() map[Status]int {
	out := q.cfg.Spool.DoneCounts()
	if active, _ := q.split(q.cfg.Spool.Len()); active > 0 {
		out[StatusQueued] = active
	}
	return out
}

// DomainStats returns the per-destination-domain health ledgers in
// domain order, with each domain's pending challenges counted from the
// spool. A domain no flush has reached yet has a zero (closed) ledger.
func (q *Queue) DomainStats() []DomainStats {
	queued := q.cfg.Spool.PendingByDomain()
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DomainStats, 0, len(q.domains))
	for name, led := range q.domains {
		out = append(out, DomainStats{
			Domain:     name,
			Queued:     queued[name],
			Sent:       led.sent,
			Bounced:    led.bounced,
			Expired:    led.expired,
			Breaker:    led.breaker.Stats(),
			FailStreak: led.failStreak,
			RetryAt:    led.retryAt,
			LastError:  led.lastError,
		})
	}
	for name, n := range queued {
		if _, ok := q.domains[name]; !ok {
			out = append(out, DomainStats{Domain: name, Queued: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}
