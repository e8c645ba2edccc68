// Package resilience provides the small hardening primitives the CR
// pipeline wraps around its network-dependent components: a three-state
// circuit breaker (closed → open → half-open), a jittered exponential
// backoff for bounded retries, and the MTA queue's retry ladder.
//
// The breaker and the backoff are clock-injected so the simulation
// exercises them in virtual time — breaker trip/recovery cycles and
// backoff schedules are tested without a single real sleep — and both
// are safe for concurrent use, as a live deployment shares them across
// SMTP sessions.
package resilience

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
)

// MTARetrySchedule is a conventional MTA queue's retry ladder: the waits
// between delivery attempts to a transiently failing destination, growing
// over roughly two days, after which the message expires (the study's
// "expired after many unsuccessful attempts"). The live outbound queue
// and the simulated network's challenge delivery both use it; neither
// may modify it.
var MTARetrySchedule = []time.Duration{
	15 * time.Minute, time.Hour, 4 * time.Hour, 12 * time.Hour, 24 * time.Hour,
}

// State is a circuit breaker's position.
type State int

// Breaker states.
const (
	// Closed: requests flow; failures are counted.
	Closed State = iota
	// Open: requests are refused outright until OpenTimeout elapses.
	Open
	// HalfOpen: a limited number of probe requests test recovery.
	HalfOpen
)

// String returns the state label.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ErrOpen is returned by Breaker.Do while the breaker refuses requests.
var ErrOpen = errors.New("resilience: circuit open")

// BreakerConfig parameterises a Breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker (default 5).
	FailureThreshold int
	// OpenTimeout is how long the breaker stays open before allowing
	// half-open probes (default 30s).
	OpenTimeout time.Duration
	// HalfOpenProbes is the number of consecutive probe successes needed
	// to close again (default 1). A probe failure re-opens immediately.
	HalfOpenProbes int
}

// DefaultBreakerConfig returns the stock parameters.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{FailureThreshold: 5, OpenTimeout: 30 * time.Second, HalfOpenProbes: 1}
}

// BreakerStats is a snapshot of a breaker's counters.
type BreakerStats struct {
	State     State
	Trips     int64 // closed/half-open -> open transitions
	Rejected  int64 // requests refused while open
	Successes int64
	Failures  int64
}

// Breaker is a minimal consecutive-failure circuit breaker. It is safe
// for concurrent use.
type Breaker struct {
	name string
	cfg  BreakerConfig
	clk  clock.Clock

	mu       sync.Mutex
	state    State
	fails    int // consecutive failures (closed) / probe failures (half-open)
	probes   int // consecutive probe successes (half-open)
	probing  int // half-open probes currently in flight (at most 1)
	openedAt time.Time
	stats    BreakerStats
}

// NewBreaker returns a closed breaker named for its guarded dependency.
func NewBreaker(name string, cfg BreakerConfig, clk clock.Clock) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = 30 * time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 1
	}
	return &Breaker{name: name, cfg: cfg, clk: clk}
}

// Name returns the guarded dependency's name.
func (b *Breaker) Name() string { return b.name }

// Allow reports whether a request may proceed, transitioning
// open → half-open once OpenTimeout has elapsed. Half-open admits one
// probe at a time: concurrent callers racing the transition are
// rejected until the in-flight probe Records its outcome, so a single
// failed probe re-opens the breaker before a second request can slip
// through to the still-broken dependency.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open {
		if b.clk.Now().Sub(b.openedAt) >= b.cfg.OpenTimeout {
			b.state = HalfOpen
			b.probes = 0
			b.probing = 0
		} else {
			b.stats.Rejected++
			return false
		}
	}
	if b.state == HalfOpen {
		if b.probing > 0 {
			b.stats.Rejected++
			return false
		}
		b.probing++
	}
	return true
}

// Record reports the outcome of an allowed request.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probing > 0 {
		b.probing--
	}
	if err == nil {
		b.stats.Successes++
		switch b.state {
		case HalfOpen:
			b.probes++
			if b.probes >= b.cfg.HalfOpenProbes {
				b.state = Closed
				b.fails = 0
			}
		default:
			b.fails = 0
		}
		return
	}
	b.stats.Failures++
	switch b.state {
	case HalfOpen:
		b.trip()
	default: // Closed
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.clk.Now()
	b.fails = 0
	b.probes = 0
	b.probing = 0
	b.stats.Trips++
}

// Do runs fn behind the breaker: ErrOpen without calling fn while open,
// otherwise fn's error (recorded).
func (b *Breaker) Do(fn func() error) error {
	if !b.Allow() {
		return fmt.Errorf("%w: %s", ErrOpen, b.name)
	}
	err := fn()
	b.Record(err)
	return err
}

// State returns the current state (resolving an elapsed open window to
// half-open, as Allow would).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.clk.Now().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		return HalfOpen
	}
	return b.state
}

// Stats returns a snapshot of the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.State = b.state
	return st
}

// Backoff computes jittered exponential retry delays:
//
//	delay(n) = min(Max, Base·Factor^n) · uniform(1-Jitter, 1+Jitter)
//
// for attempt n = 0, 1, 2, ... Jitter de-synchronises retry storms: when
// a smarthost tempfails a whole queue, the retries must not arrive as one
// thundering herd.
type Backoff struct {
	// Base is the attempt-0 delay (default 1s).
	Base time.Duration
	// Max caps the un-jittered delay (default 5m).
	Max time.Duration
	// Factor is the exponential growth rate (default 2).
	Factor float64
	// Jitter is the ± fraction of randomisation (default 0.2; 0 disables).
	Jitter float64
}

// DefaultBackoff returns the stock schedule: 1s·2ⁿ capped at 5m, ±20%.
func DefaultBackoff() Backoff {
	return Backoff{Base: time.Second, Max: 5 * time.Minute, Factor: 2, Jitter: 0.2}
}

// Delay returns the wait before retry attempt n (0-based), drawing the
// jitter from rng (a nil rng disables jitter). The result is always in
// [base·(1-Jitter), min(Max, Base·Factor^n)·(1+Jitter)].
func (bo Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	base := bo.Base
	if base <= 0 {
		base = time.Second
	}
	max := bo.Max
	if max <= 0 {
		max = 5 * time.Minute
	}
	factor := bo.Factor
	if factor < 1 {
		factor = 2
	}
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	if bo.Jitter > 0 && rng != nil {
		d *= 1 - bo.Jitter + 2*bo.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// Retrier runs an operation with bounded retries. Waits between attempts
// go through Sleep, so the simulation (which must never block the event
// loop) injects a no-op while live deployments pass a real sleeper.
type Retrier struct {
	// MaxAttempts bounds total calls (default 3; 1 means no retry).
	MaxAttempts int
	// Backoff computes the inter-attempt delays.
	Backoff Backoff
	// Sleep waits between attempts; nil retries immediately.
	Sleep func(time.Duration)
	// Retryable reports whether err is worth retrying; nil retries all
	// non-nil errors.
	Retryable func(error) bool

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrier returns a Retrier with a seeded jitter source.
func NewRetrier(maxAttempts int, bo Backoff, seed int64) *Retrier {
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	return &Retrier{MaxAttempts: maxAttempts, Backoff: bo, rng: rand.New(rand.NewSource(seed))}
}

// Do calls fn up to MaxAttempts times, sleeping the backoff delay between
// attempts, and returns the last error.
func (r *Retrier) Do(fn func() error) error {
	attempts := r.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); err == nil {
			return nil
		}
		if r.Retryable != nil && !r.Retryable(err) {
			return err
		}
		if i == attempts-1 {
			break
		}
		r.mu.Lock()
		d := r.Backoff.Delay(i, r.rng)
		r.mu.Unlock()
		if r.Sleep != nil {
			r.Sleep(d)
		}
	}
	return err
}
