// Package resilience provides the small hardening primitives the CR
// pipeline wraps around its network-dependent components: a three-state
// circuit breaker (closed → open → half-open) and the MTA queue's retry
// ladder.
//
// The breaker is clock-injected so the simulation exercises it in
// virtual time — trip/recovery cycles are tested without a single real
// sleep — and it is safe for concurrent use, as a live deployment shares
// it across SMTP sessions.
package resilience

import (
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

// state is a circuit breaker's position.
type state int

// Breaker states.
const (
	// closed: requests flow; failures are counted.
	closed state = iota
	// open: requests are refused outright until OpenTimeout elapses.
	open
	// halfOpen: a limited number of probe requests test recovery.
	halfOpen
)

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

// Breaker is a minimal consecutive-failure circuit breaker. It is safe
// for concurrent use.
type Breaker struct {
	cfg BreakerConfig
	clk clock.Clock

	mu       sync.Mutex
	state    state
	fails    int // consecutive failures (closed) / probe failures (half-open)
	probes   int // consecutive probe successes (half-open)
	probing  int // half-open probes currently in flight (at most 1)
	openedAt time.Time
}

// NewBreaker returns a closed breaker. name identifies the guarded
// dependency at the call site; the breaker keeps no copy of it, since
// its owner already keys it (per probe filter).
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
	return &Breaker{cfg: cfg, clk: clk}
}

// Allow reports whether a request may proceed, transitioning
// open → half-open once OpenTimeout has elapsed. Half-open admits one
// probe at a time: concurrent callers racing the transition are
// rejected until the in-flight probe Records its outcome, so a single
// failed probe re-opens the breaker before a second request can slip
// through to the still-broken dependency.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == open {
		if b.clk.Now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			return false
		}
		b.state = halfOpen
		b.probes = 0
		b.probing = 0
	}
	if b.state == halfOpen {
		if b.probing > 0 {
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
	if b.state == halfOpen && b.probing > 0 {
		b.probing--
	}
	if err == nil {
		switch b.state {
		case halfOpen:
			b.probes++
			if b.probes >= b.cfg.HalfOpenProbes {
				b.state = closed
				b.fails = 0
			}
		default:
			b.fails = 0
		}
		return
	}
	switch b.state {
	case halfOpen:
		b.trip()
	default: // closed
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = open
	b.openedAt = b.clk.Now()
	b.fails = 0
	b.probes = 0
	b.probing = 0
}
