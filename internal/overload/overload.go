// Package overload implements admission control for the CR gateway: a
// fixed concurrency limit, a bounded FIFO admission queue with
// deadline-based shedding, and a strictly fail-safe shed policy.
//
// The cardinal rule of the studied product is that legitimate mail must
// never be silently lost, and overload control inherits it: a shed
// message is *tempfailed* (SMTP 421/451), never dropped. Compliant MTAs
// retry tempfails on a backoff schedule — the same contract greylisting
// already exploits — so shedding converts an overload burst into a
// time-shifted delivery, not a loss. Every shed decision is emitted as a
// maillog "overload" event carrying the reason, so the log-crawling
// measurement pipeline (§2) can account for shed traffic exactly like
// any other disposition.
//
// At most Config.Limit admissions are in flight at once; the rest wait
// in the queue. The limit is fixed because an adaptive one measured no
// better than the best fixed value (EXPERIMENTS.md, surge experiment).
// Queued admissions carry a deadline; because every deadline is
// enqueue-time + a fixed patience, deadlines are monotone along the
// queue and expired entries are always at the head — a queued item past
// its deadline is shed whole, never half-processed.
//
// The controller is clock-injected: cmd/crserver runs it on the wall
// clock, the fleet simulation runs one controller per company lane on
// the lane's virtual clock, which keeps the surge experiment
// bit-for-bit deterministic for any worker count.
package overload

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/maillog"
)

// Reason says why an admission was shed.
type Reason string

// Shed reasons, attached to maillog overload events and metrics.
const (
	// reasonQueueFull: the bounded admission queue is at capacity.
	reasonQueueFull Reason = "queue-full"
	// reasonDeadline: the item waited past its queue deadline.
	reasonDeadline Reason = "deadline"
	// ReasonDraining: the controller is draining for shutdown.
	ReasonDraining Reason = "draining"
)

// Config parameterises a Controller. Zero fields take the defaults
// documented on each field.
type Config struct {
	// Limit is the most admissions in flight at once (default 256);
	// further submissions queue.
	Limit int
	// QueueCapacity bounds the admission queue (default 64).
	QueueCapacity int
	// QueueDeadline is how long a queued admission may wait before it
	// is shed (default 30s).
	QueueDeadline time.Duration
	// Clock supplies time (default clock.Real).
	Clock clock.Clock
	// Name labels emitted maillog events (the company/installation).
	Name string
	// EventSink receives overload events; nil discards them. It is
	// called outside the controller lock.
	EventSink func(maillog.Event)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Limit <= 0 {
		out.Limit = 256
	}
	if out.QueueCapacity <= 0 {
		out.QueueCapacity = 64
	}
	if out.QueueDeadline <= 0 {
		out.QueueDeadline = 30 * time.Second
	}
	if out.Clock == nil {
		out.Clock = clock.Real{}
	}
	return out
}

// delayBuckets are the fixed exponential upper bounds of the
// admission-delay histogram. Fixed global bounds make quantiles
// deterministic and mergeable across controllers.
var delayBuckets = []time.Duration{
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second,
	10 * time.Second, 30 * time.Second, 1 * time.Minute,
	5 * time.Minute, 30 * time.Minute,
}

// numDelayBuckets includes the overflow bucket.
const numDelayBuckets = 18

// ticket is a queued admission.
type ticket struct {
	id       string
	enqueued time.Time
	deadline time.Time
	onGrant  func(g *Grant, waited time.Duration)
	onShed   func(Reason)
	done     bool // granted, shed, or cancelled
}

// Grant is a held admission slot. Release it exactly once when the
// message's service completes.
type Grant struct {
	c        *Controller
	released bool
}

// Release returns the slot and grants the queued admission it frees.
// It reads the clock only when a queued admission waits for the slot.
// Releasing twice is a no-op.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	c := g.c
	c.mu.Lock()
	if g.released {
		c.mu.Unlock()
		return
	}
	g.released = true
	c.inflight--
	var cbs []func()
	if len(c.queue) > 0 {
		cbs = c.grantNextLocked(c.cfg.Clock.Now())
	}
	c.mu.Unlock()
	c.run(cbs)
}

// Outcome is the immediate result of Submit.
type Outcome struct {
	// Granted is non-nil when the submission was admitted immediately.
	Granted *Grant
	// Queued is true when the submission is waiting in the admission
	// queue; its callbacks will fire later.
	Queued bool
	// Reason is set when the submission was shed immediately.
	Reason Reason

	t *ticket // for cancel; nil unless Queued
}

// Controller is the admission controller. All methods are safe for
// concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	queue    []*ticket
	draining bool

	// metrics (under mu)
	admittedNow    int64
	admittedQueued int64
	shed           map[Reason]int64
	maxQueueDepth  int
	delayHist      [numDelayBuckets]int64

	// callback trampoline (own lock; never held across c.mu)
	cbMu      sync.Mutex
	cbQueue   []func()
	cbRunning bool
}

// New returns a Controller for cfg.
func New(cfg Config) *Controller {
	return &Controller{
		cfg:  cfg.withDefaults(),
		shed: make(map[Reason]int64),
	}
}

// QueueDeadline returns the effective queued-admission deadline, so
// callers driving virtual time can schedule an explicit Expire just
// past it (lazy expiry only runs on Submit/Release traffic).
func (c *Controller) QueueDeadline() time.Duration { return c.cfg.QueueDeadline }

// Draining reports whether StartDrain has been called.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Pressured reports whether the controller is under enough load that
// optional work (the probe filter chain) should be shed: the admission
// queue is at least half full. core.Engine consults it through
// SetPressure so filter work degrades before admissions do.
func (c *Controller) Pressured() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)*2 >= c.cfg.QueueCapacity
}

// Submit asks for an admission slot for message id. The outcome is one
// of: granted now (use and Release the Grant), queued (onGrant or
// onShed fires later, from whichever call frees capacity or expires the
// deadline), or shed now (Outcome.Reason set; onShed is NOT called for
// immediate sheds — the caller already has the reason in hand).
// Callbacks run outside the controller lock and may re-enter it.
func (c *Controller) Submit(id string, onGrant func(g *Grant, waited time.Duration), onShed func(Reason)) Outcome {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	if c.draining {
		c.shedLocked(ReasonDraining)
		depth := len(c.queue)
		c.mu.Unlock()
		c.emit(now, id, ReasonDraining, depth)
		return Outcome{Reason: ReasonDraining}
	}
	// Expire queue heads first so stale entries never hold space
	// against a fresh submission (deadlines are monotone, so expired
	// entries are exactly the prefix), then grant queued waiters any
	// freed capacity: admission is strictly FIFO — a fresh submission
	// never jumps an occupied queue.
	cbs := c.expireLocked(now)
	cbs = append(cbs, c.grantNextLocked(now)...)
	if c.inflight < c.cfg.Limit && len(c.queue) == 0 {
		c.inflight++
		c.admittedNow++
		c.delayHist[bucketFor(0)]++
		g := &Grant{c: c}
		c.mu.Unlock()
		c.run(cbs)
		return Outcome{Granted: g}
	}
	if len(c.queue) >= c.cfg.QueueCapacity {
		c.shedLocked(reasonQueueFull)
		depth := len(c.queue)
		c.mu.Unlock()
		c.run(cbs)
		c.emit(now, id, reasonQueueFull, depth)
		return Outcome{Reason: reasonQueueFull}
	}
	t := &ticket{
		id:       id,
		enqueued: now,
		deadline: now.Add(c.cfg.QueueDeadline),
		onGrant:  onGrant,
		onShed:   onShed,
	}
	c.queue = append(c.queue, t)
	if len(c.queue) > c.maxQueueDepth {
		c.maxQueueDepth = len(c.queue)
	}
	c.mu.Unlock()
	c.run(cbs)
	return Outcome{Queued: true, t: t}
}

// cancel withdraws a queued submission (e.g. the waiting SMTP session
// gave up). It returns true if the ticket was still queued — the caller
// owns the shed decision — and false if it was already granted or shed,
// in which case the ticket's callback has fired or will fire.
func (c *Controller) cancel(o Outcome) bool {
	if o.t == nil {
		return false
	}
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	if o.t.done {
		c.mu.Unlock()
		return false
	}
	o.t.done = true
	for i, q := range c.queue {
		if q == o.t {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	c.shedLocked(reasonDeadline)
	depth := len(c.queue)
	c.mu.Unlock()
	c.emit(now, o.t.id, reasonDeadline, depth)
	return true
}

// Expire sheds every queued admission whose deadline has passed. The
// simulation schedules a call just after each enqueue's deadline;
// live controllers expire lazily on Submit/Release traffic.
func (c *Controller) Expire() {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	cbs := c.expireLocked(now)
	c.mu.Unlock()
	c.run(cbs)
}

// waitResult carries a Wait outcome from the callbacks to the waiter.
type waitResult struct {
	g      *Grant
	reason Reason
}

// Wait submits and blocks until the admission is granted or shed,
// returning (grant, "", true) or (nil, reason, false). It is the entry
// point for callers on real OS threads — the live SMTP gateway — and
// uses a real timer to bound the wait at the queue deadline, so it must
// only be used with a real clock; the simulation drives Submit's
// callbacks from its virtual scheduler instead.
func (c *Controller) Wait(id string) (*Grant, Reason, bool) {
	ch := make(chan waitResult, 1)
	out := c.Submit(id,
		func(g *Grant, _ time.Duration) { ch <- waitResult{g: g} },
		func(r Reason) { ch <- waitResult{reason: r} })
	switch {
	case out.Granted != nil:
		return out.Granted, "", true
	case !out.Queued:
		return nil, out.Reason, false
	}
	timer := time.NewTimer(c.cfg.QueueDeadline + 50*time.Millisecond)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.g != nil {
			return res.g, "", true
		}
		return nil, res.reason, false
	case <-timer.C:
		if c.cancel(out) {
			return nil, reasonDeadline, false
		}
		// Lost the race: a callback already fired.
		res := <-ch
		if res.g != nil {
			return res.g, "", true
		}
		return nil, res.reason, false
	}
}

// Observe discards a service-latency sample: the limit is fixed, so
// nothing reads service latency. It stays for callers that still wire
// it to core.Engine.SetServiceObserver.
func (c *Controller) Observe(time.Duration) {}

// StartDrain flips the controller into drain mode: every queued
// admission is shed with ReasonDraining and every future Submit sheds
// immediately, so the SMTP layer can tempfail with 421 while in-flight
// grants finish.
func (c *Controller) StartDrain() {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return
	}
	c.draining = true
	var cbs []func()
	for _, t := range c.queue {
		t := t
		if t.done {
			continue
		}
		t.done = true
		c.shedLocked(ReasonDraining)
		if t.onShed != nil {
			cbs = append(cbs, func() { t.onShed(ReasonDraining) })
		}
		c.emitLater(&cbs, now, t.id, ReasonDraining, 0)
	}
	c.queue = nil
	c.mu.Unlock()
	c.run(cbs)
}

// grantNextLocked admits queued tickets up to the limit, shedding any
// whose deadline has passed. It returns the callbacks to run after the
// lock is dropped.
func (c *Controller) grantNextLocked(now time.Time) []func() {
	var cbs []func()
	for len(c.queue) > 0 && c.inflight < c.cfg.Limit {
		t := c.queue[0]
		c.queue = c.queue[1:]
		if t.done {
			continue
		}
		t.done = true
		if now.After(t.deadline) {
			c.shedLocked(reasonDeadline)
			if t.onShed != nil {
				t := t
				cbs = append(cbs, func() { t.onShed(reasonDeadline) })
			}
			c.emitLater(&cbs, now, t.id, reasonDeadline, len(c.queue))
			continue
		}
		c.inflight++
		c.admittedQueued++
		waited := now.Sub(t.enqueued)
		c.delayHist[bucketFor(waited)]++
		g := &Grant{c: c}
		if t.onGrant != nil {
			t := t
			cbs = append(cbs, func() { t.onGrant(g, waited) })
		}
	}
	return cbs
}

// expireLocked sheds the expired prefix of the queue, returning shed
// callbacks to run outside the lock.
func (c *Controller) expireLocked(now time.Time) []func() {
	var cbs []func()
	for len(c.queue) > 0 {
		t := c.queue[0]
		if t.done {
			c.queue = c.queue[1:]
			continue
		}
		if !now.After(t.deadline) {
			break
		}
		c.queue = c.queue[1:]
		t.done = true
		c.shedLocked(reasonDeadline)
		if t.onShed != nil {
			t := t
			cbs = append(cbs, func() { t.onShed(reasonDeadline) })
		}
		c.emitLater(&cbs, now, t.id, reasonDeadline, len(c.queue))
	}
	return cbs
}

func (c *Controller) shedLocked(r Reason) {
	c.shed[r]++
}

// emit sends one overload event to the sink (outside the lock).
func (c *Controller) emit(now time.Time, id string, r Reason, depth int) {
	sink := c.cfg.EventSink
	if sink == nil {
		return
	}
	sink(maillog.MakeEvent(now, c.cfg.Name, maillog.KindOverload, id,
		"reason", string(r), "queue", strconv.Itoa(depth)))
}

// emitLater appends an emit to cbs so it runs after the lock drops.
func (c *Controller) emitLater(cbs *[]func(), now time.Time, id string, r Reason, depth int) {
	if c.cfg.EventSink == nil {
		return
	}
	*cbs = append(*cbs, func() { c.emit(now, id, r, depth) })
}

// run executes callbacks outside the controller lock, through a
// trampoline: a callback that re-enters the controller (a Grant
// released inside onGrant) queues follow-on callbacks instead of
// nesting them, so callbacks always fire in strict admission order.
func (c *Controller) run(cbs []func()) {
	if len(cbs) == 0 {
		return
	}
	c.cbMu.Lock()
	c.cbQueue = append(c.cbQueue, cbs...)
	if c.cbRunning {
		c.cbMu.Unlock()
		return
	}
	c.cbRunning = true
	for len(c.cbQueue) > 0 {
		fn := c.cbQueue[0]
		c.cbQueue = c.cbQueue[1:]
		c.cbMu.Unlock()
		fn()
		c.cbMu.Lock()
	}
	c.cbRunning = false
	c.cbMu.Unlock()
}

// bucketFor maps a delay to its histogram bucket index.
func bucketFor(d time.Duration) int {
	i := sort.Search(len(delayBuckets), func(i int) bool { return d <= delayBuckets[i] })
	return i // len(delayBuckets) == overflow bucket
}

// Metrics is a point-in-time snapshot of the controller's counters.
type Metrics struct {
	Limit          int
	InFlight       int
	QueueDepth     int
	MaxQueueDepth  int
	AdmittedNow    int64
	AdmittedQueued int64
	Shed           map[Reason]int64
	Draining       bool

	delayHist [numDelayBuckets]int64
}

// Metrics returns a snapshot.
func (c *Controller) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Metrics{
		Limit:          c.cfg.Limit,
		InFlight:       c.inflight,
		QueueDepth:     len(c.queue),
		MaxQueueDepth:  c.maxQueueDepth,
		AdmittedNow:    c.admittedNow,
		AdmittedQueued: c.admittedQueued,
		Shed:           make(map[Reason]int64, len(c.shed)),
		delayHist:      c.delayHist,
		Draining:       c.draining,
	}
	for k, v := range c.shed {
		m.Shed[k] = v
	}
	return m
}

// ShedTotal sums sheds across reasons.
func (m Metrics) ShedTotal() int64 {
	var n int64
	for _, v := range m.Shed {
		n += v
	}
	return n
}

// Admitted sums immediate and queued admissions.
func (m Metrics) Admitted() int64 { return m.AdmittedNow + m.AdmittedQueued }

// Merge adds other's counters into m (for fleet-wide aggregation).
// Point-in-time gauges take the max (MaxQueueDepth) or sum (QueueDepth,
// InFlight); Limit takes the max, which is every lane's limit when the
// lanes share one config.
func (m *Metrics) Merge(other Metrics) {
	if m.Shed == nil {
		m.Shed = make(map[Reason]int64)
	}
	m.Limit = max(m.Limit, other.Limit)
	m.InFlight += other.InFlight
	m.QueueDepth += other.QueueDepth
	if other.MaxQueueDepth > m.MaxQueueDepth {
		m.MaxQueueDepth = other.MaxQueueDepth
	}
	m.AdmittedNow += other.AdmittedNow
	m.AdmittedQueued += other.AdmittedQueued
	for k, v := range other.Shed {
		m.Shed[k] += v
	}
	for i := range other.delayHist {
		m.delayHist[i] += other.delayHist[i]
	}
}

// DelayQuantile returns the admission-delay quantile q in [0,1] as the
// upper bound of the histogram bucket where the cumulative count
// crosses q — deterministic across runs and worker counts. With no
// samples it returns 0.
func (m Metrics) DelayQuantile(q float64) time.Duration {
	var total int64
	for _, v := range m.delayHist {
		total += v
	}
	if total == 0 {
		return 0
	}
	want := int64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var cum int64
	for i, v := range m.delayHist {
		cum += v
		if cum > want {
			if i < len(delayBuckets) {
				return delayBuckets[i]
			}
			return delayBuckets[len(delayBuckets)-1] * 2 // overflow bucket
		}
	}
	return delayBuckets[len(delayBuckets)-1] * 2
}
