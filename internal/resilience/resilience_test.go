package resilience

import (
	"errors"
	"math/rand"
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
	if got := b.State(); got != Closed {
		t.Fatalf("state after interleaved failures = %v, want closed", got)
	}
	b.Record(errBoom) // third consecutive
	if got := b.State(); got != Open {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}
	if st := b.Stats(); st.Trips != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want 1 trip / 1 rejection", st)
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
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after timeout = %v, want half-open", got)
	}
	b.Record(nil)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after 1/2 probes = %v, want half-open", got)
	}
	b.Record(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state after 2/2 probes = %v, want closed", got)
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
	if b.Allow() {
		t.Fatal("breaker closed again after a failed probe")
	}
	if st := b.Stats(); st.Trips != 2 {
		t.Errorf("trips = %d, want 2", st.Trips)
	}
	// The re-opened window starts fresh.
	clk.Advance(time.Minute)
	if !b.Allow() {
		t.Fatal("second probe window never opened")
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	bo := Backoff{Base: time.Second, Max: 5 * time.Minute, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 12; attempt++ {
		raw := float64(time.Second) * pow2(attempt)
		if raw > float64(5*time.Minute) {
			raw = float64(5 * time.Minute)
		}
		lo := time.Duration(raw * 0.8)
		hi := time.Duration(raw * 1.2)
		for i := 0; i < 200; i++ {
			d := bo.Delay(attempt, rng)
			if d < lo || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	// Nil rng disables jitter: exact exponential values.
	if d := bo.Delay(3, nil); d != 8*time.Second {
		t.Errorf("unjittered delay(3) = %v, want 8s", d)
	}
	if d := bo.Delay(20, nil); d != 5*time.Minute {
		t.Errorf("unjittered delay(20) = %v, want the 5m cap", d)
	}
}

func pow2(n int) float64 {
	f := 1.0
	for i := 0; i < n; i++ {
		f *= 2
	}
	return f
}

func TestRetrierBoundedAttemptsNoSleep(t *testing.T) {
	r := NewRetrier(4, DefaultBackoff(), 7)
	var slept []time.Duration
	r.Sleep = func(d time.Duration) { slept = append(slept, d) }

	calls := 0
	err := r.Do(func() error { calls++; return errBoom })
	if !errors.Is(err, errBoom) {
		t.Fatalf("Do = %v", err)
	}
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
	// Sleeps happen between attempts only, with growing jittered delays.
	if len(slept) != 3 {
		t.Fatalf("sleeps = %d, want 3", len(slept))
	}
	for i, d := range slept {
		raw := float64(time.Second) * pow2(i)
		if d < time.Duration(raw*0.8) || d > time.Duration(raw*1.2) {
			t.Errorf("sleep %d = %v outside ±20%% of %v", i, d, time.Duration(raw))
		}
	}

	// Success on attempt 2 stops the loop.
	calls = 0
	err = r.Do(func() error {
		calls++
		if calls < 2 {
			return errBoom
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Errorf("retry-then-succeed: err=%v calls=%d", err, calls)
	}
}

func TestRetrierRetryablePredicate(t *testing.T) {
	r := NewRetrier(5, DefaultBackoff(), 1)
	r.Retryable = func(err error) bool { return !errors.Is(err, errBoom) }
	calls := 0
	if err := r.Do(func() error { calls++; return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("Do = %v", err)
	}
	if calls != 1 {
		t.Errorf("non-retryable error retried %d times", calls)
	}
}

func TestHalfOpenAdmitsSingleConcurrentProbe(t *testing.T) {
	clk := clock.NewSim(epoch)
	b := NewBreaker("dep", BreakerConfig{FailureThreshold: 1, OpenTimeout: 30 * time.Second}, clk)
	b.Record(errBoom) // trip
	if b.State() != Open {
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
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open while probe in flight", b.State())
	}

	// The single probe fails: the breaker re-opens immediately and
	// everyone is refused again.
	b.Record(errBoom)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
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
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
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
