package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

var (
	epoch   = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	errBoom = errors.New("boom")
)

// stateOf reads b's position as Allow last left it.
func stateOf(b *Breaker) state {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func TestBreakerClosedToOpen(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := NewBreaker("dep", BreakerConfig{FailureThreshold: 3, OpenTimeout: 30 * time.Second}, clk)

	// Failures below the threshold keep it closed; a success resets the
	// consecutive count.
	b.Record(errBoom)
	b.Record(errBoom)
	b.Record(nil)
	b.Record(errBoom)
	b.Record(errBoom)
	if got := stateOf(b); got != closed {
		t.Fatalf("state after interleaved failures = %d, want closed", got)
	}
	b.Record(errBoom) // third consecutive
	if got := stateOf(b); got != open {
		t.Fatalf("state after threshold = %d, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}
	if got := stateOf(b); got != open {
		t.Fatalf("state after a refused request = %d, want open", got)
	}
}

func TestBreakerHalfOpenProbeSuccess(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := NewBreaker("dep", BreakerConfig{FailureThreshold: 1, OpenTimeout: 30 * time.Second, HalfOpenProbes: 2}, clk)

	b.Record(errBoom)
	if b.Allow() {
		t.Fatal("freshly tripped breaker allowed a request")
	}
	clk.Advance(30 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after OpenTimeout")
	}
	if got := stateOf(b); got != halfOpen {
		t.Fatalf("state after timeout = %d, want half-open", got)
	}
	b.Record(nil)
	if got := stateOf(b); got != halfOpen {
		t.Fatalf("state after 1/2 probes = %d, want half-open", got)
	}
	b.Record(nil)
	if got := stateOf(b); got != closed {
		t.Fatalf("state after 2/2 probes = %d, want closed", got)
	}
}

func TestBreakerHalfOpenProbeFailure(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := NewBreaker("dep", BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Minute}, clk)

	b.Record(errBoom)
	clk.Advance(time.Minute)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Record(errBoom) // probe fails: re-open immediately
	if got := stateOf(b); got != open {
		t.Fatalf("state after a failed probe = %d, want open", got)
	}
	if b.Allow() {
		t.Fatal("breaker closed again after a failed probe")
	}
	// The re-opened window starts fresh.
	clk.Advance(time.Minute - time.Second)
	if b.Allow() {
		t.Fatal("re-opened window measured from the first trip")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe window never opened")
	}
}

func TestHalfOpenAdmitsSingleConcurrentProbe(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := NewBreaker("dep", BreakerConfig{FailureThreshold: 1, OpenTimeout: 30 * time.Second}, clk)
	b.Record(errBoom) // trip
	if stateOf(b) != open {
		t.Fatal("breaker not open")
	}
	clk.Advance(time.Minute) // past OpenTimeout: next Allow goes half-open

	// A stampede of recovered traffic races the half-open transition.
	// Exactly one request may probe the dependency; the rest are
	// rejected until that probe reports back.
	const goroutines = 32
	var wg sync.WaitGroup
	var admitted int32
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.Allow() {
				atomic.AddInt32(&admitted, 1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", admitted)
	}
	if got := stateOf(b); got != halfOpen {
		t.Fatalf("state = %d, want half-open while probe in flight", got)
	}

	// The single probe fails: the breaker re-opens immediately and
	// everyone is refused again.
	b.Record(errBoom)
	if got := stateOf(b); got != open {
		t.Fatalf("state after failed probe = %d, want open", got)
	}
	if b.Allow() {
		t.Fatal("request admitted right after a failed probe re-opened the breaker")
	}

	// Next window: the probe succeeds and the breaker closes for all.
	clk.Advance(time.Minute)
	if !b.Allow() {
		t.Fatal("probe not admitted in new half-open window")
	}
	b.Record(nil)
	if got := stateOf(b); got != closed {
		t.Fatalf("state after successful probe = %d, want closed", got)
	}
	var wg2 sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if !b.Allow() {
				t.Error("closed breaker refused a request")
			}
			b.Record(nil)
		}()
	}
	wg2.Wait()
}
