package clock

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

func TestSimNowAdvance(t *testing.T) {
	c := NewSim(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", c.Now(), t0)
	}
	c.Advance(90 * time.Minute)
	want := t0.Add(90 * time.Minute)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", c.Now(), want)
	}
}

func TestSimAdvanceNegativePanics(t *testing.T) {
	c := NewSim(t0)
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	c.Advance(-1)
}

// TestSimConcurrentMonotone runs readers against concurrent writers.
// First AdvanceTo writers race each other, then Advance writers do. No
// reader ever sees time go backwards, racing AdvanceTo calls leave the
// largest target, every Advance lands on top of it, and Now allocates
// nothing.
func TestSimConcurrentMonotone(t *testing.T) {
	c := NewSim(t0)
	const readers, writers, steps = 4, 4, 500
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			prev := c.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := c.Now()
				if now.Before(prev) {
					errs <- fmt.Errorf("Now went backwards: %v after %v", now, prev)
					return
				}
				prev = now
			}
		}()
	}

	// Writer w's targets interleave with every other writer's; even
	// writers climb and odd ones descend, so both the winning CAS and
	// the no-op path run under contention.
	target := func(w, i int) time.Time {
		if w%2 == 1 {
			i = steps - 1 - i
		}
		return t0.Add(time.Duration(i*writers+w) * time.Millisecond)
	}
	maxTarget := t0.Add(time.Duration((steps-1)*writers+writers-1) * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				c.AdvanceTo(target(w, i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Now(); !got.Equal(maxTarget) {
		t.Fatalf("after racing AdvanceTo: Now() = %v, want %v", got, maxTarget)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				c.Advance(time.Second)
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := c.Now(), maxTarget.Add(writers*steps*time.Second); !got.Equal(want) {
		t.Fatalf("final Now() = %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Now() }); allocs != 0 {
		t.Fatalf("Now allocates %.1f times per call, want 0", allocs)
	}
}

func TestRealClock(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestSchedulerOrdering(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	var got []int
	s.At(t0.Add(3*time.Second), func() { got = append(got, 3) })
	s.At(t0.Add(1*time.Second), func() { got = append(got, 1) })
	s.At(t0.Add(2*time.Second), func() { got = append(got, 2) })
	n := s.RunUntil(t0.Add(10 * time.Second))
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v, want [1 2 3]", got)
		}
	}
	if !c.Now().Equal(t0.Add(10 * time.Second)) {
		t.Fatalf("clock = %v, want horizon", c.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	var got []int
	at := t0.Add(time.Second)
	for i := 0; i < 5; i++ {
		i := i
		s.At(at, func() { got = append(got, i) })
	}
	s.RunUntil(at)
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestSchedulerHorizonExcludesLater(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	ran := false
	s.At(t0.Add(time.Hour), func() { ran = true })
	s.RunUntil(t0.Add(time.Minute))
	if ran {
		t.Fatal("event past horizon ran")
	}
	if n := s.RunUntil(t0.Add(2 * time.Hour)); n != 1 || !ran {
		t.Fatal("event within extended horizon did not run")
	}
}

func TestSchedulerEventSchedulesEvent(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	var times []time.Time
	s.After(time.Second, func() {
		times = append(times, c.Now())
		s.After(time.Second, func() { times = append(times, c.Now()) })
	})
	s.RunUntil(t0.Add(5 * time.Second))
	if len(times) != 2 {
		t.Fatalf("got %d firings, want 2 (chained)", len(times))
	}
	if !times[1].Equal(t0.Add(2 * time.Second)) {
		t.Fatalf("chained event at %v, want %v", times[1], t0.Add(2*time.Second))
	}
}

func TestSchedulerPastEventRunsImmediately(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	c.Advance(time.Hour)
	ran := false
	s.At(t0.Add(time.Minute), func() { ran = true }) // already in the past
	s.RunUntil(c.Now())
	if !ran {
		t.Fatal("past-dated event did not run")
	}
	// Clock must not go backwards to the event time.
	if c.Now().Before(t0.Add(time.Hour)) {
		t.Fatalf("clock went backwards: %v", c.Now())
	}
}

func TestSchedulerConcurrentScheduling(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	var wg sync.WaitGroup
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.After(time.Duration(i)*time.Millisecond, func() {})
		}(i)
	}
	wg.Wait()
	if got := s.RunUntil(c.Now().Add(time.Second)); got != n {
		t.Fatalf("executed %d, want %d", got, n)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	c := NewSim(t0)
	s := NewScheduler(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Millisecond, func() {})
	}
	s.RunUntil(c.Now().Add(time.Hour))
}

// TestSchedulerMatchesTimeOrder pins the event heap's total order:
// events fire by time, and in scheduling order among equal times, as a
// stable sort of (time, scheduling order) gives.
func TestSchedulerMatchesTimeOrder(t *testing.T) {
	c := NewSim(t0)
	s := NewScheduler(c)
	rng := rand.New(rand.NewSource(1))
	type ev struct {
		at time.Time
		id int
	}
	var want []ev
	var got []int
	schedule := func(at time.Time) {
		id := len(want)
		want = append(want, ev{at, id})
		s.At(at, func() { got = append(got, id) })
	}
	for i := 0; i < 2000; i++ {
		// Few distinct instants, so many events tie.
		schedule(t0.Add(time.Duration(rng.Intn(300)) * time.Second))
	}
	if n := s.RunUntil(t0.Add(time.Hour)); n != len(want) {
		t.Fatalf("RunUntil ran %d events, want %d", n, len(want))
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at.Before(want[j].at) })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].id {
			t.Fatalf("event %d: ran #%d, want #%d", i, got[i], want[i].id)
		}
	}
}
