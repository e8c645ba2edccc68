// Package faults is the fault-injection substrate for the simulated
// Internet and for live deployments under test.
//
// The paper's central lesson is that a CR filter's behaviour is dominated
// by how it degrades when its dependencies misbehave: challenge servers
// get blacklisted (§5.1), and the auxiliary reverse-DNS and RBL checks are
// network lookups that time out, serve stale data, or disappear entirely.
// This package lets an experiment (or an operator) declare those
// misbehaviours as a composable *fault plan* — probability- or
// schedule-driven rules targeting named dependencies — and have every
// injection point of one installation consult one seeded Injector (the
// simulated fleet gives each company its own), so chaos runs stay
// byte-for-byte reproducible.
//
// Targets and their owners. Where the product already consumes an
// interface or a hook, a decorator in internal/faults/seam applies the
// target around it and the leaf package knows nothing of faults:
//
//	dns             seam.Resolver     every resolver lookup (timeout / outage / latency)
//	rbl:<name>      seam.RBL          one blocklist backend's query (outage / stale); rbl:* every provider
//	av              seam.Antivirus    the scanner backend (clamd-style daemon down)
//	wal-spool       seam.Journal      outbound-spool journal appends (per-transition drops)
//	wal-append      seam.Appender     write-ahead-log record appends through the journal
//	wal-fsync       seam.Fsync        WAL flush fsyncs (wal.Options.Fsync; the first failure fails the log)
//	store           seam.Fsync        the snapshot temp file's fsync (store.Saver.Fsync)
//
// The rest have no such seam and are consulted by their owner:
//
//	smarthost       outbound.Queue    per-item challenge delivery (4xx storms, send errors)
//	smarthost-dial  outbound.Queue    the smarthost session/dial; "smarthost*" covers both
//	domain:<name>   outbound.Queue    one destination domain's delivery path (dark MX)
//	reputation      reputation.Store  sender-reputation lookups and writes
//	outbound-dsn    simnet.Network    DSN generation at the remote MTA (malformed bounces)
//	surge           workload lanes    per-message engine service latency (overload runs)
//
// Why those stay: outbound.Config.Dial returns a concrete
// *smtp.Client, so the smarthost path has no interface to wrap; the
// engine holds a concrete *reputation.Store; and outbound-dsn and surge
// are on the simulator's side of the wire, not the product's. Because
// reputation keeps importing this package (and filters reaches it
// through reputation), the decorators live in the seam subpackage.
//
// Unknown targets are rejected at plan load: Validate checks every
// rule's target against this list (plus "rbl:<name>" and prefix
// wildcards), so a typo in a JSON plan fails fast instead of silently
// injecting nothing.
//
// The hardened consumers (internal/filters.Hardened, core.Engine,
// outbound.Queue) turn injected faults into explicit fail-open or
// fail-closed degradation rather than silent misclassification.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Kind enumerates the injectable fault flavours.
type Kind string

// Fault kinds.
const (
	// KindTimeout: the dependency never answers (DNS SERVFAIL/timeout,
	// hung socket). Consumers see a temporary error.
	KindTimeout Kind = "timeout"
	// KindOutage: the dependency is down — immediate hard error
	// (connection refused, provider unreachable).
	KindOutage Kind = "outage"
	// KindTempfail: an SMTP-style 4xx transient rejection from the
	// smarthost; the queue must retry.
	KindTempfail Kind = "tempfail"
	// KindStale: the dependency answers, but with stale/empty data (an
	// RBL zone that stopped updating). No error is surfaced — this is the
	// silent-wrong-answer failure mode.
	KindStale Kind = "stale"
	// KindLatency: the dependency answers after Latency. Injection points
	// compare it against their per-lookup deadline and convert
	// over-deadline answers into timeouts.
	KindLatency Kind = "latency"
	// KindError: a generic hard error (disk write failure, EIO).
	KindError Kind = "error"
)

// Injected fault errors, one per kind that surfaces as an error.
var (
	// ErrTimeout is returned for KindTimeout (and over-deadline latency).
	ErrTimeout = errors.New("faults: injected timeout")
	// ErrOutage is returned for KindOutage.
	ErrOutage = errors.New("faults: injected outage")
	// ErrTempfail is returned for KindTempfail.
	ErrTempfail = errors.New("faults: injected tempfail")
	// ErrInjected is returned for KindError.
	ErrInjected = errors.New("faults: injected error")
)

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("250ms", "4h"), so fault plans stay human-editable JSON.
type Duration time.Duration

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or raw nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("faults: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("faults: bad duration %s", b)
	}
	*d = Duration(n)
	return nil
}

// Rule is one fault source in a plan. A rule fires when its target
// matches, its schedule window (if any) contains the current time, and a
// seeded coin flip passes Probability.
type Rule struct {
	// Target selects the injection point ("dns", "rbl:spamhaus",
	// "smarthost", ...). A trailing '*' is a prefix wildcard: "rbl:*"
	// matches every provider.
	Target string `json:"target"`
	// Kind selects the fault flavour.
	Kind Kind `json:"kind"`
	// Probability in [0,1] of firing per consultation; values <= 0 mean
	// "always" so schedule-only rules need no explicit probability.
	Probability float64 `json:"probability,omitempty"`
	// Latency is the injected answer delay for KindLatency.
	Latency Duration `json:"latency,omitempty"`
	// FromHour/UntilHour bound the rule to a window of simulation hours
	// relative to the injector's start. UntilHour 0 means "forever".
	FromHour  float64 `json:"from_hour,omitempty"`
	UntilHour float64 `json:"until_hour,omitempty"`
}

// matches reports whether the rule's target covers target.
func (r *Rule) matches(target string) bool {
	if strings.HasSuffix(r.Target, "*") {
		return strings.HasPrefix(target, strings.TrimSuffix(r.Target, "*"))
	}
	return r.Target == target
}

// active reports whether the rule's schedule window contains elapsed.
func (r *Rule) active(elapsed time.Duration) bool {
	h := elapsed.Hours()
	if h < r.FromHour {
		return false
	}
	return r.UntilHour <= 0 || h < r.UntilHour
}

// Plan is a named, composable set of fault rules.
type Plan struct {
	// Name identifies the plan in logs and reports.
	Name string `json:"name"`
	// Rules are evaluated in order; the first firing rule wins, so put
	// specific targets before wildcards.
	Rules []Rule `json:"rules"`
}

// validTargets are the exact injection-point names consulted anywhere
// in the pipeline. "rbl:" is special-cased (providers are dynamic), and
// a trailing '*' wildcard is checked against these prefixes.
var validTargets = []string{
	"dns", "av", "smarthost", "smarthost-dial", "store", "reputation", "surge",
	"wal-append", "wal-fsync", "wal-spool", "outbound-dsn",
}

// validTarget reports whether a rule's target can ever match a real
// injection point.
func validTarget(target string) bool {
	if strings.HasPrefix(target, "rbl:") && len(target) > len("rbl:") {
		return true // provider names (and "rbl:*") are deployment-defined
	}
	if strings.HasPrefix(target, "domain:") && len(target) > len("domain:") {
		return true // destination domains are deployment-defined
	}
	if prefix, ok := strings.CutSuffix(target, "*"); ok {
		if prefix == "" {
			return true // "*" matches everything by construction
		}
		for _, t := range validTargets {
			if strings.HasPrefix(t, prefix) || strings.HasPrefix("rbl:", prefix) || strings.HasPrefix("domain:", prefix) {
				return true
			}
		}
		return false
	}
	for _, t := range validTargets {
		if target == t {
			return true
		}
	}
	return false
}

// Validate rejects malformed plans before they poison a long run.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	known := map[Kind]bool{
		KindTimeout: true, KindOutage: true, KindTempfail: true,
		KindStale: true, KindLatency: true, KindError: true,
	}
	for i, r := range p.Rules {
		if r.Target == "" {
			return fmt.Errorf("faults: rule %d has no target", i)
		}
		if !validTarget(r.Target) {
			return fmt.Errorf("faults: rule %d targets unknown injection point %q (valid: %s, rbl:<name>, and '*' prefix wildcards)",
				i, r.Target, strings.Join(validTargets, ", "))
		}
		if !known[r.Kind] {
			return fmt.Errorf("faults: rule %d has unknown kind %q", i, r.Kind)
		}
		if r.Probability < 0 || r.Probability > 1 {
			return fmt.Errorf("faults: rule %d probability %v out of [0,1]", i, r.Probability)
		}
		if r.Kind == KindLatency && r.Latency <= 0 {
			return fmt.Errorf("faults: rule %d is latency-kind without a latency", i)
		}
		if r.UntilHour > 0 && r.UntilHour <= r.FromHour {
			return fmt.Errorf("faults: rule %d window [%v,%v) is empty", i, r.FromHour, r.UntilHour)
		}
	}
	return nil
}

// Describe renders a one-line-per-rule summary for startup logs.
func (p *Plan) Describe() string {
	if p == nil || len(p.Rules) == 0 {
		return "no active fault plan"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan %q (%d rules):", p.Name, len(p.Rules))
	for _, r := range p.Rules {
		prob := r.Probability
		if prob <= 0 {
			prob = 1
		}
		fmt.Fprintf(&b, "\n  %s %s p=%.2f", r.Target, r.Kind, prob)
		if r.Kind == KindLatency {
			fmt.Fprintf(&b, " latency=%v", time.Duration(r.Latency))
		}
		if r.FromHour > 0 || r.UntilHour > 0 {
			until := "∞"
			if r.UntilHour > 0 {
				until = fmt.Sprintf("%gh", r.UntilHour)
			}
			fmt.Fprintf(&b, " window=[%gh,%s)", r.FromHour, until)
		}
	}
	return b.String()
}

// Parse decodes a JSON fault plan from r and validates it.
func Parse(r io.Reader) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: decode plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadFile reads and validates a JSON fault plan from path.
func LoadFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: open plan: %w", err)
	}
	defer f.Close()
	p, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	if p.Name == "" {
		p.Name = path
	}
	return p, nil
}

// Decision is the outcome of one injector consultation. A zero Decision
// means "no fault". Latency is the injected answer delay (KindLatency
// under the caller's deadline); callers above their deadline receive
// Err == ErrTimeout instead.
type Decision struct {
	Err     error
	Kind    Kind
	Latency time.Duration
}

// Injector is consulted by every injection point. A nil Injector injects
// nothing; implementations must be safe for concurrent use.
type Injector interface {
	// Decide returns the fault (if any) for one consultation of target.
	// deadline is the caller's per-lookup deadline, used to convert
	// injected latency into timeouts; pass 0 for "no deadline" (latency
	// faults then never fire as errors).
	Decide(target string, deadline time.Duration) Decision
}

// Set is the standard Injector: a plan plus a seeded RNG and a clock for
// schedule windows. Equal (plan, seed, consultation order) give equal
// decisions, which is what keeps chaos runs reproducible.
type Set struct {
	plan  *Plan
	clk   clock.Clock
	start time.Time

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]int64 // "target/kind" -> fired
}

// New builds an injector for plan. The schedule-window origin is the
// clock's current time at construction. A nil plan yields an injector
// that never fires (convenient for unconditional wiring).
func New(plan *Plan, seed int64, clk clock.Clock) *Set {
	return &Set{
		plan:   plan,
		clk:    clk,
		start:  clk.Now(),
		rng:    rand.New(rand.NewSource(seed)),
		counts: make(map[string]int64),
	}
}

// Decide implements Injector.
func (s *Set) Decide(target string, deadline time.Duration) Decision {
	if s == nil || s.plan == nil || len(s.plan.Rules) == 0 {
		return Decision{}
	}
	elapsed := s.clk.Now().Sub(s.start)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.plan.Rules {
		r := &s.plan.Rules[i]
		if !r.matches(target) || !r.active(elapsed) {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 && s.rng.Float64() >= r.Probability {
			// One draw per matching rule keeps the RNG stream aligned
			// across runs regardless of which rules fire.
			continue
		}
		d := s.decision(r, deadline)
		if d.Err != nil || d.Kind != "" {
			s.counts[target+"/"+string(r.Kind)]++
		}
		return d
	}
	return Decision{}
}

// decision converts a fired rule into the caller-visible Decision.
func (s *Set) decision(r *Rule, deadline time.Duration) Decision {
	switch r.Kind {
	case KindTimeout:
		return Decision{Err: ErrTimeout, Kind: r.Kind}
	case KindOutage:
		return Decision{Err: ErrOutage, Kind: r.Kind}
	case KindTempfail:
		return Decision{Err: ErrTempfail, Kind: r.Kind}
	case KindError:
		return Decision{Err: ErrInjected, Kind: r.Kind}
	case KindStale:
		return Decision{Kind: KindStale}
	case KindLatency:
		lat := time.Duration(r.Latency)
		if deadline > 0 && lat >= deadline {
			return Decision{Err: ErrTimeout, Kind: KindTimeout, Latency: lat}
		}
		return Decision{Kind: KindLatency, Latency: lat}
	default:
		return Decision{}
	}
}

// Counts returns how often each "target/kind" fault fired, for the chaos
// report. Keys are sorted on render; the map itself is a copy.
func (s *Set) Counts() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// TornWrite models what a crash leaves of an un-synced write: an
// arbitrary prefix of b survives (possibly none, possibly all), and the
// last surviving byte is sometimes corrupted — the sector that was
// mid-flight when power went. The WAL's replay must treat any such tail
// as "truncate here and boot" (checked by experiments.CrashRestart and
// the wal torn-tail fuzz test). The input is never modified.
func TornWrite(rng *rand.Rand, b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	n := rng.Intn(len(b) + 1)
	out := append([]byte(nil), b[:n]...)
	if n > 0 && rng.Intn(4) == 0 {
		out[n-1] ^= byte(1 + rng.Intn(255))
	}
	return out
}

// DefaultChaosPlan is the canned plan used by the chaos example and the
// reproduce -only=chaos artifact when no -fault-plan file is given: a
// total RBL blackout (the §5.1 "our provider stopped answering" scenario)
// plus background DNS flakiness, smarthost 4xx storms and a slow scanner.
func DefaultChaosPlan() *Plan {
	return &Plan{
		Name: "default-chaos",
		Rules: []Rule{
			{Target: "rbl:*", Kind: KindOutage}, // 100% provider outage
			{Target: "dns", Kind: KindTimeout, Probability: 0.05},
			{Target: "smarthost", Kind: KindTempfail, Probability: 0.30},
			{Target: "av", Kind: KindError, Probability: 0.01},
		},
	}
}
