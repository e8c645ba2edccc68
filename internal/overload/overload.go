// Package overload implements admission control for the CR gateway: an
// adaptive concurrency limiter (AIMD on observed per-message service
// latency against a target), a bounded FIFO admission queue with
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
// The limiter is classic AIMD keyed on service latency: completions
// under the target grow the concurrency limit additively (+increase/limit
// per completion, ≈ +increase per window), completions over the target
// shrink it multiplicatively (×backoff), at most once per cooldown so a
// burst of equally-slow completions at one instant counts as a single
// congestion signal. Queued admissions carry a deadline; because every
// deadline is enqueue-time + a fixed patience, deadlines are monotone
// along the queue and expired entries are always at the head — a queued
// item past its deadline is shed whole, never half-processed.
//
// The controller is clock-injected: cmd/crserver runs it on the wall
// clock, the fleet simulation runs one controller per company lane on
// the lane's virtual clock, which keeps the surge experiment
// bit-for-bit deterministic for any worker count.
package overload

import (
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/maillog"
)

// Reason says why an admission was shed.
type Reason string

// Shed reasons, attached to maillog overload events and metrics.
const (
	// ReasonLimit: concurrency at limit and no queue space configured.
	ReasonLimit Reason = "limit"
	// ReasonQueueFull: the bounded admission queue is at capacity.
	ReasonQueueFull Reason = "queue-full"
	// ReasonDeadline: the item waited past its queue deadline.
	ReasonDeadline Reason = "deadline"
	// ReasonDraining: the controller is draining for shutdown.
	ReasonDraining Reason = "draining"
)

// The AIMD limiter's fixed steps. The limit grows by increase/limit per
// under-target completion, ≈ +increase per full window of completions,
// and shrinks by the factor backoff on a congestion signal. Decreases
// are at least TargetLatency apart, so that one burst of slow
// completions counts as one signal.
const (
	increase = 1
	backoff  = 0.7
)

// Config parameterises a Controller. Zero fields take the defaults
// documented on each field.
type Config struct {
	// MinLimit is the AIMD floor (default 2). The limiter never backs
	// off below it, so progress is guaranteed even under sustained
	// congestion.
	MinLimit int
	// MaxLimit is the AIMD ceiling (default 256).
	MaxLimit int
	// InitialLimit seeds the limiter (default 16, clamped to
	// [MinLimit, MaxLimit]).
	InitialLimit int
	// TargetLatency is the per-message service-latency target (default
	// 250ms). Completions above it are congestion signals.
	TargetLatency time.Duration
	// QueueCapacity bounds the admission queue (default 64). Negative
	// disables queueing: over-limit submissions shed immediately with
	// ReasonLimit.
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
	if out.MinLimit <= 0 {
		out.MinLimit = 2
	}
	if out.MaxLimit <= 0 {
		out.MaxLimit = 256
	}
	if out.MaxLimit < out.MinLimit {
		out.MaxLimit = out.MinLimit
	}
	if out.InitialLimit <= 0 {
		out.InitialLimit = 16
	}
	if out.InitialLimit < out.MinLimit {
		out.InitialLimit = out.MinLimit
	}
	if out.InitialLimit > out.MaxLimit {
		out.InitialLimit = out.MaxLimit
	}
	if out.TargetLatency <= 0 {
		out.TargetLatency = 250 * time.Millisecond
	}
	if out.QueueCapacity == 0 {
		out.QueueCapacity = 64
	} else if out.QueueCapacity < 0 {
		out.QueueCapacity = 0 // negative: queueing disabled
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
// message's service completes; the elapsed time feeds the AIMD limiter.
type Grant struct {
	c        *Controller
	acquired time.Time
	released bool
}

// Release returns the slot, records acquired→now as the service-latency
// observation, and grants queued admissions freed capacity allows.
// Releasing twice is a no-op.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	c := g.c
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	if g.released {
		c.mu.Unlock()
		return
	}
	g.released = true
	c.inflight--
	c.observeLocked(now.Sub(g.acquired), now)
	cbs := c.grantNextLocked(now)
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

	mu           sync.Mutex
	limit        float64
	inflight     int
	queue        []*ticket
	draining     bool
	lastDecrease time.Time
	decreaseSet  bool

	// metrics (under mu)
	admittedNow    int64
	admittedQueued int64
	shed           map[Reason]int64
	maxQueueDepth  int
	observations   int64
	decreases      int64
	delayHist      [numDelayBuckets]int64

	// callback trampoline (own lock; never held across c.mu)
	cbMu      sync.Mutex
	cbQueue   []func()
	cbRunning bool
}

// New returns a Controller for cfg.
func New(cfg Config) *Controller {
	c := cfg.withDefaults()
	return &Controller{
		cfg:   c,
		limit: float64(c.InitialLimit),
		shed:  make(map[Reason]int64),
	}
}

func (c *Controller) intLimitLocked() int {
	l := int(c.limit)
	if l < 1 {
		l = 1
	}
	return l
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
	if c.inflight < c.intLimitLocked() && len(c.queue) == 0 {
		c.inflight++
		c.admittedNow++
		c.delayHist[bucketFor(0)]++
		g := &Grant{c: c, acquired: now}
		c.mu.Unlock()
		c.run(cbs)
		return Outcome{Granted: g}
	}
	if len(c.queue) >= c.cfg.QueueCapacity {
		reason := ReasonQueueFull
		if c.cfg.QueueCapacity == 0 {
			reason = ReasonLimit // queueing disabled: at-limit is the cause
		}
		c.shedLocked(reason)
		depth := len(c.queue)
		c.mu.Unlock()
		c.run(cbs)
		c.emit(now, id, reason, depth)
		return Outcome{Reason: reason}
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

// Cancel withdraws a queued submission (e.g. the waiting SMTP session
// gave up). It returns true if the ticket was still queued — the caller
// owns the shed decision — and false if it was already granted or shed,
// in which case the ticket's callback has fired or will fire.
func (c *Controller) Cancel(o Outcome) bool {
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
	c.shedLocked(ReasonDeadline)
	depth := len(c.queue)
	c.mu.Unlock()
	c.emit(now, o.t.id, ReasonDeadline, depth)
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
		if c.Cancel(out) {
			return nil, ReasonDeadline, false
		}
		// Lost the race: a callback already fired.
		res := <-ch
		if res.g != nil {
			return res.g, "", true
		}
		return nil, res.reason, false
	}
}

// Observe feeds an externally-measured service latency to the AIMD
// limiter (e.g. the engine's own per-message service time when the
// controller fronts a path it cannot wrap with a Grant).
func (c *Controller) Observe(lat time.Duration) {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	c.observeLocked(lat, now)
	cbs := c.grantNextLocked(now)
	c.mu.Unlock()
	c.run(cbs)
}

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

// observeLocked applies one latency sample to the AIMD limiter.
func (c *Controller) observeLocked(lat time.Duration, now time.Time) {
	c.observations++
	if lat > c.cfg.TargetLatency {
		if !c.decreaseSet || now.Sub(c.lastDecrease) >= c.cfg.TargetLatency {
			c.limit *= backoff
			if c.limit < float64(c.cfg.MinLimit) {
				c.limit = float64(c.cfg.MinLimit)
			}
			c.lastDecrease = now
			c.decreaseSet = true
			c.decreases++
		}
		return
	}
	c.limit += increase / c.limit
	if c.limit > float64(c.cfg.MaxLimit) {
		c.limit = float64(c.cfg.MaxLimit)
	}
}

// grantNextLocked admits queued tickets up to the limit, shedding any
// whose deadline has passed. It returns the callbacks to run after the
// lock is dropped.
func (c *Controller) grantNextLocked(now time.Time) []func() {
	var cbs []func()
	for len(c.queue) > 0 && c.inflight < c.intLimitLocked() {
		t := c.queue[0]
		c.queue = c.queue[1:]
		if t.done {
			continue
		}
		t.done = true
		if now.After(t.deadline) {
			c.shedLocked(ReasonDeadline)
			if t.onShed != nil {
				t := t
				cbs = append(cbs, func() { t.onShed(ReasonDeadline) })
			}
			c.emitLater(&cbs, now, t.id, ReasonDeadline, len(c.queue))
			continue
		}
		c.inflight++
		c.admittedQueued++
		waited := now.Sub(t.enqueued)
		c.delayHist[bucketFor(waited)]++
		g := &Grant{c: c, acquired: now}
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
		c.shedLocked(ReasonDeadline)
		if t.onShed != nil {
			t := t
			cbs = append(cbs, func() { t.onShed(ReasonDeadline) })
		}
		c.emitLater(&cbs, now, t.id, ReasonDeadline, len(c.queue))
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
		"reason", string(r), "queue", itoa(depth)))
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

// itoa is strconv.Itoa without the import churn for small counts.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// bucketFor maps a delay to its histogram bucket index.
func bucketFor(d time.Duration) int {
	i := sort.Search(len(delayBuckets), func(i int) bool { return d <= delayBuckets[i] })
	return i // len(delayBuckets) == overflow bucket
}

// Metrics is a point-in-time snapshot of the controller's counters.
type Metrics struct {
	Limit          float64
	InFlight       int
	QueueDepth     int
	MaxQueueDepth  int
	AdmittedNow    int64
	AdmittedQueued int64
	Shed           map[Reason]int64
	Observations   int64
	Decreases      int64
	DelayHist      [numDelayBuckets]int64
	Draining       bool
}

// Metrics returns a snapshot.
func (c *Controller) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Metrics{
		Limit:          c.limit,
		InFlight:       c.inflight,
		QueueDepth:     len(c.queue),
		MaxQueueDepth:  c.maxQueueDepth,
		AdmittedNow:    c.admittedNow,
		AdmittedQueued: c.admittedQueued,
		Shed:           make(map[Reason]int64, len(c.shed)),
		Observations:   c.observations,
		Decreases:      c.decreases,
		DelayHist:      c.delayHist,
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
// InFlight); Limit keeps the minimum, the most conservative lane.
func (m *Metrics) Merge(other Metrics) {
	if m.Shed == nil {
		m.Shed = make(map[Reason]int64)
	}
	if m.Observations == 0 && m.AdmittedNow == 0 && m.AdmittedQueued == 0 && len(m.Shed) == 0 {
		m.Limit = other.Limit
	} else if other.Limit < m.Limit {
		m.Limit = other.Limit
	}
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
	m.Observations += other.Observations
	m.Decreases += other.Decreases
	for i := range other.DelayHist {
		m.DelayHist[i] += other.DelayHist[i]
	}
}

// DelayQuantile returns the admission-delay quantile q in [0,1] as the
// upper bound of the histogram bucket where the cumulative count
// crosses q — deterministic across runs and worker counts. With no
// samples it returns 0.
func (m Metrics) DelayQuantile(q float64) time.Duration {
	var total int64
	for _, v := range m.DelayHist {
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
	for i, v := range m.DelayHist {
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
