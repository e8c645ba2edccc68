// Package clock provides time abstractions for the CR-filter simulator.
//
// Every component in this repository that needs "now" takes a Clock rather
// than calling time.Now directly. A live deployment (cmd/crserver) injects
// Real; the measurement experiments inject Sim so that six months of
// simulated mail traffic run in seconds and every run is deterministic.
package clock

import (
	"container/heap"
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

// Set jumps the clock to t. It panics if t is before the current time.
func (s *Sim) Set(t time.Time) {
	to := int64(t.Sub(s.start))
	for {
		cur := s.off.Load()
		if to < cur {
			panic(fmt.Sprintf("clock: Set to %v before current %v", t, s.start.Add(time.Duration(cur))))
		}
		if s.off.CompareAndSwap(cur, to) {
			return
		}
	}
}

// AdvanceTo is a monotone Set: it jumps the clock to t if t is later
// than the current time and is a no-op otherwise. Epoch barriers use it
// to bring a shared clock up to the barrier time without having to know
// whether some drained event already moved it there.
func (s *Sim) AdvanceTo(t time.Time) {
	to := int64(t.Sub(s.start))
	for {
		cur := s.off.Load()
		if to <= cur || s.off.CompareAndSwap(cur, to) {
			return
		}
	}
}

// event is a scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
}

// eventQueue is a min-heap of events ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
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

// Clock returns the simulated clock this scheduler drives.
func (s *Scheduler) Clock() *Sim { return s.clock }

// At schedules fn to run when the virtual clock reaches t. Events scheduled
// for a time already in the past run at the next RunUntil step, in order.
func (s *Scheduler) At(t time.Time, fn func()) {
	s.mu.Lock()
	s.seq++
	heap.Push(&s.pq, &event{at: t, seq: s.seq, fn: fn})
	s.mu.Unlock()
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.At(s.clock.Now().Add(d), fn)
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now, until the scheduler is drained past until. A zero until
// means "forever" (bounded only by RunUntil's horizon).
func (s *Scheduler) Every(period time.Duration, until time.Time, fn func()) {
	if period <= 0 {
		panic("clock: Every with non-positive period")
	}
	var tick func()
	tick = func() {
		if !until.IsZero() && s.clock.Now().After(until) {
			return
		}
		fn()
		s.After(period, tick)
	}
	s.After(period, tick)
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pq)
}

// NextAt returns the timestamp of the earliest queued event without
// running it. The second result is false when the queue is empty. Sparse
// epoch barriers use it to decide whether a barrier must fire to drain
// the shared scheduler, or the whole epoch can be skipped.
func (s *Scheduler) NextAt() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pq) == 0 {
		return time.Time{}, false
	}
	return s.pq[0].at, true
}

// pop removes and returns the earliest event at or before horizon,
// or nil if none qualifies.
func (s *Scheduler) pop(horizon time.Time) *event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pq) == 0 || s.pq[0].at.After(horizon) {
		return nil
	}
	return heap.Pop(&s.pq).(*event)
}

// RunUntil executes queued events in time order, advancing the clock to
// each event's timestamp, until no event remains at or before horizon.
// Finally the clock is advanced to horizon. It returns the number of
// events executed.
func (s *Scheduler) RunUntil(horizon time.Time) int {
	n := 0
	for {
		e := s.pop(horizon)
		if e == nil {
			break
		}
		if e.at.After(s.clock.Now()) {
			s.clock.Set(e.at)
		}
		e.fn()
		n++
	}
	if horizon.After(s.clock.Now()) {
		s.clock.Set(horizon)
	}
	return n
}

// RunFor is RunUntil(now + d).
func (s *Scheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.clock.Now().Add(d))
}
