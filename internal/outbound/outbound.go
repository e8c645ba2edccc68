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
//   - Durability: every state transition (enqueue / attempt / sent /
//     bounced / expired) is journalled through internal/spool into the
//     WAL before the in-memory item changes, so a crash between
//     gray-spool accept and smarthost handoff loses zero acked
//     challenges — store.Recover rebuilds the pending spool and
//     Restore re-admits it.
//   - Per-destination-domain isolation: each destination domain gets
//     its own health ledger (a consecutive-failure circuit breaker, an
//     independent retry ladder and a bounded per-flush in-flight
//     batch), so one dead or RBL-listed destination MX cannot starve
//     retries or head-of-line-block delivery to healthy domains.
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

// Status is the delivery state of a queued challenge.
type Status int

// Queue item states.
const (
	// StatusQueued: waiting for the next delivery attempt.
	StatusQueued Status = iota
	// StatusSent: accepted by the smarthost.
	StatusSent
	// StatusBounced: permanently rejected (5xx).
	StatusBounced
	// StatusExpired: retries exhausted.
	StatusExpired
)

// String returns the state label.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusSent:
		return "sent"
	case StatusBounced:
		return "bounced"
	case StatusExpired:
		return "expired"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrClass classifies the failure recorded in Item.LastError, so an
// expired item shows which error class exhausted its retries.
type ErrClass string

// Error classes.
const (
	// ClassNone: no failure recorded yet.
	ClassNone ErrClass = ""
	// ClassTempfail: the smarthost answered 4xx (transient rejection).
	ClassTempfail ErrClass = "tempfail"
	// ClassPermfail: the smarthost answered 5xx (permanent rejection).
	ClassPermfail ErrClass = "permfail"
	// ClassConnection: the session itself failed (dial, I/O, injected
	// outage) before an SMTP verdict was reached.
	ClassConnection ErrClass = "connection"
)

// Item is one queued challenge with its delivery state.
type Item struct {
	Challenge core.OutboundChallenge
	Status    Status
	Attempts  int
	LastError string
	LastClass ErrClass
	NextTry   time.Time
}

// Dialer opens an SMTP session to the smarthost. Tests substitute an
// in-memory implementation.
type Dialer func() (*smtp.Client, error)

// Config parameterises a Queue.
type Config struct {
	// Dial opens the smarthost connection; required.
	Dial Dialer
	// HeloDomain is announced on each session.
	HeloDomain string
	// RetrySchedule are the waits between attempts; when exhausted the
	// item expires. Defaults to resilience.MTARetrySchedule. The same
	// ladder paces a failing destination domain: after k consecutive
	// domain-level failures, the whole domain waits RetrySchedule[k-1]
	// (capped at the last rung) before its next batch.
	RetrySchedule []time.Duration
	// MaxAttempts caps delivery attempts per item regardless of the
	// schedule length; 0 means len(RetrySchedule)+1.
	MaxAttempts int
	// Injector is an optional fault source consulted on the smarthost
	// path. Target "smarthost-dial" is decided once per session before
	// the dial and any fault fails the whole session; target "smarthost"
	// is decided per item — tempfail synthesizes a 421, other faults
	// surface as connection errors. A "smarthost*" rule covers both.
	// Target "domain:<name>" is decided per item for the destination
	// domain and fails only that domain (the dark-MX scenario); target
	// "wal-spool" drops the item's journal append (fail-open).
	Injector faults.Injector
	// MaxQueued bounds the number of items in the active delivery queue
	// (any state — the queue also holds terminal items for reporting).
	// Overflowing challenges are deferred, not dropped: they wait in a
	// raw FIFO (un-rendered, no Item allocated) and are promoted as
	// Flush frees capacity. 0 means unbounded.
	MaxQueued int
	// Now supplies timestamps; nil = time.Now.
	Now func() time.Time

	// Spool is the durable fold of the queue's journalled transitions.
	// nil allocates a private in-memory one, so the accessors work
	// uniformly; pass the store-registered State to make it part of
	// snapshots and recovery.
	Spool *spool.State
	// Journal appends one WAL record and returns its LSN (0 = dropped).
	// Wire it to (*wal.Journal).Emit; nil runs the spool unjournalled.
	Journal func(wal.Record) uint64
	// Breaker parameterises the per-domain circuit breakers; zero
	// values take resilience defaults (5 consecutive failures to open,
	// 30s open window, 1 half-open probe).
	Breaker resilience.BreakerConfig
	// MaxPerDomainInFlight bounds how many items of one destination
	// domain a single Flush attempts (0 = unbounded). A domain in
	// half-open always gets exactly one probe item.
	MaxPerDomainInFlight int
}

// domainLedger is the per-destination-domain health state: the circuit
// breaker, the domain-level retry ladder position, and fate counters.
type domainLedger struct {
	breaker    *resilience.Breaker
	failStreak int
	retryAt    time.Time
	lastError  string
	queued     int
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

	mu    sync.Mutex
	items []*Item
	// deferred holds challenges that overflowed MaxQueued, FIFO. They
	// carry no Item and no rendered body yet — deferral is deliberately
	// the cheapest possible representation of "not yet". Deferred
	// challenges are journalled at Enqueue like active ones, so a crash
	// loses neither.
	deferred []core.OutboundChallenge
	// active counts non-terminal (queued) items, so the bound check is
	// O(1) per Enqueue.
	active  int
	domains map[string]*domainLedger
}

// NewQueue returns an empty queue.
func NewQueue(cfg Config) *Queue {
	if cfg.Dial == nil {
		panic("outbound: Config.Dial is required")
	}
	if cfg.HeloDomain == "" {
		cfg.HeloDomain = "cr.invalid"
	}
	if len(cfg.RetrySchedule) == 0 {
		cfg.RetrySchedule = resilience.MTARetrySchedule
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = len(cfg.RetrySchedule) + 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Spool == nil {
		cfg.Spool = spool.NewState()
	}
	q := &Queue{cfg: cfg, domains: make(map[string]*domainLedger)}
	q.rec = &spool.Recorder{State: cfg.Spool, Emit: cfg.Journal}
	if cfg.Injector != nil {
		inj := cfg.Injector
		q.rec.Gate = func() bool { return inj.Decide("wal-spool", 0).Err == nil }
	}
	return q
}

// Spool returns the queue's durable spool state.
func (q *Queue) Spool() *spool.State { return q.cfg.Spool }

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

// fromSpool is toSpool's inverse, for Restore.
func fromSpool(sc spool.Challenge) core.OutboundChallenge {
	return core.OutboundChallenge{
		MsgID:   sc.MsgID,
		Token:   sc.Token,
		From:    sc.From,
		To:      sc.To,
		Subject: sc.Subject,
		URL:     sc.URL,
		Size:    sc.Size,
		Issued:  sc.Issued,
	}
}

// ledgerLocked returns (creating if needed) the ledger for domain.
// Caller holds q.mu.
func (q *Queue) ledgerLocked(domain string) *domainLedger {
	led, ok := q.domains[domain]
	if !ok {
		led = &domainLedger{
			breaker: resilience.NewBreaker("outbound:"+domain, q.cfg.Breaker, nowClock{q.cfg.Now}),
		}
		q.domains[domain] = led
	}
	return led
}

// Enqueue adds a challenge for delivery on the next Flush, journalling
// it first so an acked challenge survives a crash. When the bounded
// active queue is full the challenge is deferred — generation waits, it
// is never dropped.
func (q *Queue) Enqueue(ch core.OutboundChallenge) {
	q.mu.Lock()
	q.rec.Enqueue(q.cfg.Now(), toSpool(ch))
	q.ledgerLocked(ch.To.Domain).queued++
	if q.cfg.MaxQueued > 0 && q.active >= q.cfg.MaxQueued {
		q.deferred = append(q.deferred, ch)
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, &Item{Challenge: ch, NextTry: q.cfg.Now()})
	q.active++
	q.mu.Unlock()
}

// Restore re-admits the pending spool recovered from a snapshot + WAL
// replay: every still-queued item becomes an active (or deferred) queue
// entry with its attempt count, error state and retry timer intact.
// Call it once at boot, after store.Recover and before the first Flush;
// it returns the number of challenges re-admitted. Restored items are
// not re-journalled — their transitions are already in the log.
func (q *Queue) Restore() int {
	pending := q.cfg.Spool.Pending()
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, sp := range pending {
		ch := fromSpool(sp.Challenge)
		q.ledgerLocked(ch.To.Domain).queued++
		if q.cfg.MaxQueued > 0 && q.active >= q.cfg.MaxQueued {
			q.deferred = append(q.deferred, ch)
			n++
			continue
		}
		it := &Item{
			Challenge: ch,
			Status:    StatusQueued,
			Attempts:  sp.Attempts,
			LastClass: ErrClass(sp.LastClass),
			LastError: sp.LastError,
			NextTry:   sp.NextTry,
		}
		q.items = append(q.items, it)
		q.active++
		n++
	}
	return n
}

// promoteLocked moves deferred challenges into the active queue while
// capacity allows, preserving FIFO order. Caller holds q.mu.
func (q *Queue) promoteLocked(now time.Time) {
	for len(q.deferred) > 0 && (q.cfg.MaxQueued <= 0 || q.active < q.cfg.MaxQueued) {
		ch := q.deferred[0]
		q.deferred = q.deferred[1:]
		q.items = append(q.items, &Item{Challenge: ch, NextTry: now})
		q.active++
	}
	if len(q.deferred) == 0 {
		q.deferred = nil
	}
}

// Deferred reports how many challenges are waiting for queue capacity.
func (q *Queue) Deferred() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.deferred)
}

// SpoolDepth reports the number of undelivered challenges the queue is
// responsible for: active queued items plus deferred overflow.
func (q *Queue) SpoolDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.active + len(q.deferred)
}

// Sender returns a core.ChallengeSender that enqueues.
func (q *Queue) Sender() core.ChallengeSender {
	return func(ch core.OutboundChallenge) { q.Enqueue(ch) }
}

// RenderChallenge builds the RFC 5322 body of a challenge email: the
// text a real sender reads, with the CAPTCHA URL to open.
func RenderChallenge(ch core.OutboundChallenge) string {
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

// Flush attempts delivery of every due item over a single smarthost
// session. It returns the number of items that reached a terminal state
// (sent, bounced, expired). Transient errors reschedule per the retry
// schedule; dial failures leave the queue untouched for the next Flush.
func (q *Queue) Flush() (terminal int, err error) {
	return q.flush(false)
}

// FlushAll is Flush ignoring item retry timers and domain-ladder waits:
// every queued item is attempted now (open breakers still refuse their
// domain — a dark MX stays dark even during drain). The graceful-drain
// path uses it so a shutdown does not strand challenges waiting on a
// backoff schedule.
func (q *Queue) FlushAll() (terminal int, err error) {
	return q.flush(true)
}

// domGroup is one destination domain's batch of a flush.
type domGroup struct {
	domain   string
	led      *domainLedger
	items    []*Item
	probed   bool // breaker was half-open when admitted: exactly one probe item
	recorded bool // at least one item outcome was Recorded on the breaker
}

func (q *Queue) flush(ignoreSchedule bool) (terminal int, err error) {
	now := q.cfg.Now()
	q.mu.Lock()
	q.promoteLocked(now)
	perDomain := make(map[string][]*Item)
	for _, it := range q.items {
		if it.Status != StatusQueued || (!ignoreSchedule && it.NextTry.After(now)) {
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
		} else if q.cfg.MaxPerDomainInFlight > 0 && len(g.items) > q.cfg.MaxPerDomainInFlight {
			g.items = g.items[:q.cfg.MaxPerDomainInFlight]
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
			q.mu.Lock()
			it.Attempts++
			switch e := sendErr.(type) {
			case nil:
				it.Status = StatusSent
				q.rec.Terminal(now, it.Challenge.MsgID, spool.StatusSent, string(it.LastClass), it.LastError, it.Attempts)
				terminal++
				q.active--
				q.domainOutcomeLocked(g, it, now, nil)
			case *smtp.Reply:
				if e.Temporary() {
					it.LastClass = ClassTempfail
					it.LastError = string(ClassTempfail) + ": " + e.Error()
					q.rescheduleLocked(it, now)
					if it.Status == StatusExpired {
						terminal++
						q.active--
					}
					q.domainOutcomeLocked(g, it, now, sendErr)
				} else {
					it.LastClass = ClassPermfail
					it.LastError = string(ClassPermfail) + ": " + e.Error()
					it.Status = StatusBounced
					q.rec.Terminal(now, it.Challenge.MsgID, spool.StatusBounced, string(it.LastClass), it.LastError, it.Attempts)
					terminal++
					q.active--
					// A permanent rejection is a definitive answer from a
					// live path — the domain is healthy, the mailbox is not.
					q.domainOutcomeLocked(g, it, now, nil)
				}
				// The session survives SMTP-level rejections; reset the
				// transaction for the next item.
				q.mu.Unlock()
				_ = client.Reset()
				q.mu.Lock()
			default:
				it.LastClass = ClassConnection
				it.LastError = string(ClassConnection) + ": " + sendErr.Error()
				q.rescheduleLocked(it, now)
				if it.Status == StatusExpired {
					terminal++
					q.active--
				}
				q.domainOutcomeLocked(g, it, now, sendErr)
				if !domainFault {
					// Smarthost-session failure: stop the whole flush,
					// release any untested half-open probes, retry later.
					q.promoteLocked(now)
					q.mu.Unlock()
					releaseProbes(sendErr)
					return terminal, fmt.Errorf("outbound: session lost: %w", sendErr)
				}
			}
			q.mu.Unlock()
			if domainFault {
				// The destination is failing, not the smarthost: skip the
				// rest of this domain's batch and move on to the next
				// domain — this is exactly the head-of-line block the
				// per-domain ledgers exist to prevent.
				break
			}
		}
	}
	q.mu.Lock()
	q.promoteLocked(now)
	q.mu.Unlock()
	_ = client.Quit()
	return terminal, nil
}

// domainOutcomeLocked feeds one item outcome into its domain's ledger:
// the circuit breaker, the domain retry ladder and the fate counters.
// Caller holds q.mu.
func (q *Queue) domainOutcomeLocked(g *domGroup, it *Item, now time.Time, outcome error) {
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
		if idx >= len(q.cfg.RetrySchedule) {
			idx = len(q.cfg.RetrySchedule) - 1
		}
		led.retryAt = now.Add(q.cfg.RetrySchedule[idx])
		led.lastError = it.LastError
	}
	switch it.Status {
	case StatusSent:
		led.sent++
		led.queued--
	case StatusBounced:
		led.bounced++
		led.queued--
	case StatusExpired:
		led.expired++
		led.queued--
	}
}

// rescheduleLocked applies the retry schedule, journalling the attempt
// (or the expiry it causes). Caller holds q.mu.
func (q *Queue) rescheduleLocked(it *Item, now time.Time) {
	idx := it.Attempts - 1
	if it.Attempts >= q.cfg.MaxAttempts || idx >= len(q.cfg.RetrySchedule) {
		it.Status = StatusExpired
		q.rec.Terminal(now, it.Challenge.MsgID, spool.StatusExpired, string(it.LastClass), it.LastError, it.Attempts)
		return
	}
	it.NextTry = now.Add(q.cfg.RetrySchedule[idx])
	q.rec.Attempt(now, it.Challenge.MsgID, string(it.LastClass), it.LastError, it.Attempts, it.NextTry)
}

// Stats counts items per state.
func (q *Queue) Stats() map[Status]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[Status]int)
	for _, it := range q.items {
		out[it.Status]++
	}
	return out
}

// ErrorClasses counts items per last-recorded error class, skipping
// items that never failed.
func (q *Queue) ErrorClasses() map[ErrClass]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[ErrClass]int)
	for _, it := range q.items {
		if it.LastClass != ClassNone {
			out[it.LastClass]++
		}
	}
	return out
}

// Items returns a snapshot of the queue.
func (q *Queue) Items() []Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Item, len(q.items))
	for i, it := range q.items {
		out[i] = *it
	}
	return out
}

// DomainStats returns the per-destination-domain health ledgers in
// domain order.
func (q *Queue) DomainStats() []DomainStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DomainStats, 0, len(q.domains))
	for name, led := range q.domains {
		out = append(out, DomainStats{
			Domain:     name,
			Queued:     led.queued,
			Sent:       led.sent,
			Bounced:    led.bounced,
			Expired:    led.expired,
			Breaker:    led.breaker.Stats(),
			FailStreak: led.failStreak,
			RetryAt:    led.retryAt,
			LastError:  led.lastError,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}
