// Package greylist implements SMTP greylisting, the natural companion to
// a challenge-response filter and an instance of the §5.2 question the
// paper raises: which additional anti-spam techniques should surround
// the CR engine to cut useless challenges without adding false
// positives?
//
// Greylisting temp-rejects (451) the first delivery attempt for an
// unseen (client network, sender, recipient) tuple. Real MTAs queue and
// retry, so legitimate mail arrives minutes later; botnet spam cannons
// typically fire-and-forget, so the retry never comes and the CR engine
// never sees the message — which means no challenge, no backscatter, no
// spamtrap hit. Like CR itself, greylisting trades delivery delay for
// protection; unlike content filters it cannot false-positive on wanted
// mail from a standards-compliant server.
package greylist

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

// Verdict is the greylist decision for one delivery attempt.
type Verdict int

// Verdicts.
const (
	// Accept: the tuple has passed greylisting (or greylisting is
	// bypassed for it); let the message through.
	Accept Verdict = iota
	// TempReject: reply 451 and wait for the retry.
	TempReject
)

// String returns the verdict label.
func (v Verdict) String() string {
	if v == TempReject {
		return "temp-reject"
	}
	return "accept"
}

// Config parameterises a Store.
type Config struct {
	// Delay is the minimum age of a tuple before a retry is accepted
	// (typical deployments use 5–30 minutes).
	Delay time.Duration
	// Window is how long a greylisted tuple waits for its retry; with no
	// retry within the window the tuple is forgotten.
	Window time.Duration
	// PassTTL is how long a passed tuple stays whitelisted (subsequent
	// deliveries are accepted immediately).
	PassTTL time.Duration
}

// DefaultConfig mirrors common production settings.
func DefaultConfig() Config {
	return Config{
		Delay:   15 * time.Minute,
		Window:  24 * time.Hour,
		PassTTL: 36 * 24 * time.Hour,
	}
}

// Stats counts greylisting outcomes.
type Stats struct {
	FirstSeen   int64 // tuples temp-rejected on first contact
	EarlyRetry  int64 // retries before Delay elapsed (still rejected)
	Passed      int64 // retries that promoted the tuple
	KnownAccept int64 // deliveries on already-passed tuples
}

// tuple state.
type entry struct {
	firstSeen time.Time
	passedAt  time.Time // zero until promoted
}

// Store is the greylist database. Safe for concurrent use.
type Store struct {
	cfg Config
	clk clock.Clock

	mu      sync.Mutex
	tuples  map[string]*entry
	stats   Stats
	sweepAt time.Time
}

// New returns an empty greylist.
func New(cfg Config, clk clock.Clock) *Store {
	if cfg.Delay <= 0 {
		cfg.Delay = 15 * time.Minute
	}
	if cfg.Window <= 0 {
		cfg.Window = 24 * time.Hour
	}
	if cfg.PassTTL <= 0 {
		cfg.PassTTL = 36 * 24 * time.Hour
	}
	return &Store{cfg: cfg, clk: clk, tuples: make(map[string]*entry)}
}

// key builds the greylisting tuple: the client's /24 network (retries
// from large MTA farms come from neighbouring addresses), the envelope
// sender and the recipient.
func key(clientIP string, from, to mail.Address) string {
	net := clientIP
	if i := strings.LastIndexByte(clientIP, '.'); i > 0 {
		net = clientIP[:i]
	}
	return net + "|" + from.Key() + "|" + to.Key()
}

// Check records a delivery attempt and returns the verdict. Null-sender
// mail (bounces) is never greylisted — deferring DSNs loses them, since
// many queue runners do not retry bounces.
func (s *Store) Check(clientIP string, from, to mail.Address) Verdict {
	if from.IsNull() {
		return Accept
	}
	now := s.clk.Now()
	k := key(clientIP, from, to)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.maybeSweep(now)

	e, ok := s.tuples[k]
	if !ok {
		s.tuples[k] = &entry{firstSeen: now}
		s.stats.FirstSeen++
		return TempReject
	}
	if !e.passedAt.IsZero() {
		if now.Sub(e.passedAt) <= s.cfg.PassTTL {
			s.stats.KnownAccept++
			e.passedAt = now // sliding TTL
			return Accept
		}
		// Pass expired: start over.
		e.firstSeen = now
		e.passedAt = time.Time{}
		s.stats.FirstSeen++
		return TempReject
	}
	age := now.Sub(e.firstSeen)
	switch {
	case age < s.cfg.Delay:
		// No state change.
		s.stats.EarlyRetry++
		return TempReject
	case age > s.cfg.Window:
		// The retry came absurdly late; treat as first contact.
		e.firstSeen = now
		s.stats.FirstSeen++
		return TempReject
	default:
		e.passedAt = now
		s.stats.Passed++
		return Accept
	}
}

// maybeSweep drops stale tuples at most once per hour of clock time.
// Caller holds s.mu.
func (s *Store) maybeSweep(now time.Time) {
	if !s.sweepAt.IsZero() && now.Sub(s.sweepAt) < time.Hour {
		return
	}
	s.sweepAt = now
	for k, e := range s.tuples {
		stale := false
		if e.passedAt.IsZero() {
			stale = now.Sub(e.firstSeen) > s.cfg.Window
		} else {
			stale = now.Sub(e.passedAt) > s.cfg.PassTTL
		}
		if stale {
			delete(s.tuples, k)
		}
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of tracked tuples.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tuples)
}

// String summarises the store for logs.
func (s *Store) String() string {
	st := s.Stats()
	return fmt.Sprintf("greylist{tuples=%d first=%d early=%d passed=%d known=%d}",
		s.Len(), st.FirstSeen, st.EarlyRetry, st.Passed, st.KnownAccept)
}
