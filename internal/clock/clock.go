// Package clock provides time abstractions for the CR-filter simulator.
//
// Every component in this repository that needs "now" takes a Clock rather
// than calling time.Now directly. A live deployment (cmd/crserver) injects
// Real; the measurement experiments inject Sim so that six months of
// simulated mail traffic run in seconds and every run is deterministic.
package clock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies the current time.
type Clock interface {
	// Now returns the current time according to this clock.
	Now() time.Time
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sim is a manually-advanced virtual clock. It is safe for concurrent use
// and lock-free: the current time is the start time plus an atomic
// nanosecond offset, so Now is one atomic load and the fleet's lanes,
// which read the shared clock on every blocklist query, never contend
// on a lock.
//
// The zero value is not useful; construct with NewSim.
type Sim struct {
	start time.Time
	off   atomic.Int64 // nanoseconds since start; never decreases
}

// NewSim returns a simulated clock initialised to start.
func NewSim(start time.Time) *Sim {
	return &Sim{start: start}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	return s.start.Add(time.Duration(s.off.Load()))
}

// Advance moves the clock forward by d. It panics if d is negative:
// simulated time never flows backwards.
func (s *Sim) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: Advance by negative duration %v", d))
	}
	s.off.Add(int64(d))
}

// AdvanceTo jumps the clock to t if t is later than the current time
// and is a no-op otherwise. Epoch barriers use it to bring a shared
// clock up to the barrier time without having to know whether some
// drained event already moved it there.
func (s *Sim) AdvanceTo(t time.Time) { s.advanceOff(int64(t.Sub(s.start))) }

// advanceOff moves the clock to offset to from its start if that is
// later than the current time, and is a no-op otherwise.
func (s *Sim) advanceOff(to int64) {
	for {
		cur := s.off.Load()
		if to <= cur || s.off.CompareAndSwap(cur, to) {
			return
		}
	}
}

// event is a scheduled callback. at is the event's time as the
// clock's own nanosecond offset from its start (Sim.off), saturating
// like time.Time.Sub for instants centuries away; seq breaks ties FIFO
// among events at the same instant. (at, seq) totally orders the queue
// exactly as the event times and scheduling order do.
type event struct {
	at  int64
	seq uint64
	fn  func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events by value, ordered by
// (at, seq): scheduling an event allocates nothing beyond the slice's
// growth, and no comparison goes through an interface.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the root. The queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	root := h[0]
	h[0] = h[n]
	h[n] = event{} // drop the callback reference
	h = h[:n]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < n && h[l].before(&h[least]) {
			least = l
		}
		if r := l + 1; r < n && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return root
}

// Scheduler executes callbacks at chosen virtual times on a Sim clock.
//
// A Scheduler is the event loop of the simulation: the workload generators
// and the delivery agent schedule future work (message arrivals, SMTP
// retries, quarantine expiry sweeps) and RunUntil drains the queue in time
// order, advancing the clock to each event as it fires.
//
// Scheduler is safe for concurrent scheduling, but RunUntil must be called
// from a single goroutine at a time.
type Scheduler struct {
	clock *Sim

	mu  sync.Mutex
	pq  eventQueue
	seq uint64
}

// NewScheduler returns a Scheduler driving the given simulated clock.
func NewScheduler(c *Sim) *Scheduler {
	return &Scheduler{clock: c}
}

// At schedules fn to run when the virtual clock reaches t. Events scheduled
// for a time already in the past run at the next RunUntil step, in order.
func (s *Scheduler) At(t time.Time, fn func()) {
	at := int64(t.Sub(s.clock.start))
	s.mu.Lock()
	s.seq++
	s.pq.push(event{at: at, seq: s.seq, fn: fn})
	s.mu.Unlock()
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.At(s.clock.Now().Add(d), fn)
}

// pop removes and returns the earliest event at or before horizon (a
// clock offset); ok is false if none qualifies.
func (s *Scheduler) pop(horizon int64) (e event, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pq) == 0 || s.pq[0].at > horizon {
		return event{}, false
	}
	return s.pq.pop(), true
}

// RunUntil executes queued events in time order, advancing the clock to
// each event's timestamp, until no event remains at or before horizon.
// Finally the clock is advanced to horizon. It returns the number of
// events executed.
func (s *Scheduler) RunUntil(horizon time.Time) int {
	h := int64(horizon.Sub(s.clock.start))
	n := 0
	for {
		e, ok := s.pop(h)
		if !ok {
			break
		}
		s.clock.advanceOff(e.at)
		e.fn()
		n++
	}
	s.clock.advanceOff(h)
	return n
}
