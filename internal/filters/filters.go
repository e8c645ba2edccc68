// Package filters implements the auxiliary anti-spam filters the CR
// product runs on gray messages before deciding to send a challenge.
//
// The product under study chained three filters — an antivirus scan, a
// reverse-DNS check, and a SpamHaus IP blacklist lookup — which together
// dropped 77.5% of gray-spool messages (Table 1: rDNS 3.53M, RBL 4.97M,
// AV 0.27M drops). §5.2 evaluates adding a fourth, SPF, which this package
// also provides. Filters compose into a Chain that short-circuits on the
// first Drop and report which filter dropped or degraded; the engine
// counts both (core.Metrics).
package filters

import (
	"fmt"
	"strings"

	"repro/internal/dnssim"
	"repro/internal/rbl"
	"repro/internal/reputation"
	"repro/internal/resilience"
	"repro/internal/spf"

	"repro/internal/mail"
)

// Verdict is a filter's decision about one message.
type Verdict int

// Verdicts.
const (
	// Pass lets the message continue down the chain.
	Pass Verdict = iota
	// Drop rejects the message; the dispatcher discards it silently
	// (the product never bounces filter-dropped mail).
	Drop
)

// String returns "pass" or "drop".
func (v Verdict) String() string {
	if v == Drop {
		return "drop"
	}
	return "pass"
}

// Result is a verdict plus the filter's reason, recorded in the logs the
// measurement pipeline aggregates.
type Result struct {
	Verdict Verdict
	Reason  string
}

// Filter inspects one message. Implementations must be safe for
// concurrent use.
type Filter interface {
	// Name identifies the filter in counters and reports.
	Name() string
	// Check returns the filter's verdict for msg.
	Check(msg *mail.Message) Result
}

// Prober is a Filter whose verdict depends on external infrastructure
// (DNS, a blocklist, a scanner daemon) and can therefore fail for
// reasons that have nothing to do with the message. Probe separates the
// two channels Check conflates: a Result when the dependency answered,
// or an error when it did not. The Hardened wrapper turns those errors
// into explicit fail-open / fail-closed degradation.
type Prober interface {
	Filter
	// Probe returns the filter's verdict, or an infrastructure error
	// (in which case the Result is meaningless).
	Probe(msg *mail.Message) (Result, error)
}

// DegradeMode is a filter's policy when its dependency is unavailable.
type DegradeMode int

// Degradation policies.
const (
	// FailOpen: pass the message through. Correct for advisory checks
	// (reverse-DNS, RBL, SPF): a DNS outage must not silently drop real
	// mail — the worst case is a few extra challenges (§4, §5.1).
	FailOpen DegradeMode = iota
	// FailClosed: hold (drop from the chain's perspective) the message.
	// Correct for structural checks like the antivirus scan: delivering
	// unscanned attachments is worse than quarantining them.
	FailClosed
)

// String returns the policy label.
func (m DegradeMode) String() string {
	if m == FailClosed {
		return "fail-closed"
	}
	return "fail-open"
}

// Antivirus is a signature-matching scanner. The simulation embeds one of
// the configured signatures in the body of virus-carrying messages, which
// exercises the same code path a ClamAV-style engine would: a scan over
// the body with a signature set. Real deployments talk to a scanner
// daemon (clamd) over a socket, so the scan can fail independently of
// the message; a fault plan's "av" target models that backend around
// the Prober (internal/faults/seam).
type Antivirus struct {
	signatures []string
}

// EICAR is the standard antivirus test signature; included by default.
const EICAR = `X5O!P%@AP[4\PZX54(P^)7CC)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!$H+H*`

// NewAntivirus returns a scanner matching the given signatures plus EICAR.
func NewAntivirus(signatures ...string) *Antivirus {
	return &Antivirus{signatures: append([]string{EICAR}, signatures...)}
}

// Name implements Filter.
func (a *Antivirus) Name() string { return "antivirus" }

// Check implements Filter: Drop if any signature occurs in the body.
func (a *Antivirus) Check(msg *mail.Message) Result {
	r, _ := a.Probe(msg)
	return r
}

// Probe implements Prober. The in-process scan itself never fails.
func (a *Antivirus) Probe(msg *mail.Message) (Result, error) {
	for _, sig := range a.signatures {
		if strings.Contains(msg.Body, sig) {
			return Result{Drop, "virus signature " + truncate(sig, 24)}, nil
		}
	}
	return Result{Verdict: Pass}, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// ReverseDNS drops messages whose client IP has no PTR record. Hosts on
// residential/botnet address space typically have none (or a generic
// one), making this a cheap but effective pre-filter — it dropped 3.5M
// messages in the study.
type ReverseDNS struct {
	resolver dnssim.Resolver
}

// NewReverseDNS returns the reverse-DNS filter.
func NewReverseDNS(r dnssim.Resolver) *ReverseDNS {
	return &ReverseDNS{resolver: r}
}

// Name implements Filter.
func (f *ReverseDNS) Name() string { return "reverse-dns" }

// Check implements Filter. Any lookup failure drops — the historical
// (unhardened) behaviour, where a resolver outage silently turns into
// "no PTR". Hardened chains use Probe instead.
func (f *ReverseDNS) Check(msg *mail.Message) Result {
	if msg.ClientIP == "" {
		return Result{Drop, "no client IP"}
	}
	if _, err := f.resolver.LookupPTR(msg.ClientIP); err != nil {
		return Result{Drop, "no PTR for " + msg.ClientIP}
	}
	return Result{Verdict: Pass}
}

// Probe implements Prober: an authoritative NXDOMAIN drops, while a
// temporary resolver failure is an infrastructure error left to the
// degradation policy.
func (f *ReverseDNS) Probe(msg *mail.Message) (Result, error) {
	if msg.ClientIP == "" {
		return Result{Drop, "no client IP"}, nil
	}
	if _, err := f.resolver.LookupPTR(msg.ClientIP); err != nil {
		if dnssim.IsTemporary(err) {
			return Result{}, err
		}
		return Result{Drop, "no PTR for " + msg.ClientIP}, nil
	}
	return Result{Verdict: Pass}, nil
}

// RBLBackend is the lookup surface the RBL filter needs. *rbl.Provider
// implements it and every engine queries it directly; a fault plan's
// "rbl:<name>" target wraps it (internal/faults/seam).
type RBLBackend interface {
	Name() string
	Query(ip string) (bool, error)
}

// Interface check: the raw provider must keep satisfying the backend
// surface so existing call sites compile unchanged.
var _ RBLBackend = (*rbl.Provider)(nil)

// RBL drops messages whose client IP is listed on the configured
// blocklist (SpamHaus in the product under study).
type RBL struct {
	provider RBLBackend
}

// NewRBL returns the IP-blacklist filter backed by provider.
func NewRBL(provider RBLBackend) *RBL {
	return &RBL{provider: provider}
}

// Name implements Filter.
func (f *RBL) Name() string { return "rbl" }

// Check implements Filter.
func (f *RBL) Check(msg *mail.Message) Result {
	r, _ := f.Probe(msg)
	return r
}

// Probe implements Prober, using the backend's fallible Query path so a
// provider outage surfaces as an error instead of a silent "not listed".
func (f *RBL) Probe(msg *mail.Message) (Result, error) {
	if msg.ClientIP == "" {
		return Result{Verdict: Pass}, nil
	}
	listed, err := f.provider.Query(msg.ClientIP)
	if err != nil {
		return Result{}, err
	}
	if listed {
		return Result{Drop, "listed on " + f.provider.Name()}, nil
	}
	return Result{Verdict: Pass}, nil
}

// SPF drops messages whose envelope sender domain publishes an SPF policy
// that the client IP fails. This is the §5.2 extension: not part of the
// product's default chain, evaluated offline in the paper (Figure 12).
// Only a hard Fail drops; SoftFail/Neutral/None/errors pass, matching the
// conservative deployment the paper reasons about.
type SPF struct {
	checker *spf.Checker
}

// NewSPF returns the SPF filter using checker.
func NewSPF(checker *spf.Checker) *SPF {
	return &SPF{checker: checker}
}

// Name implements Filter.
func (f *SPF) Name() string { return "spf" }

// Check implements Filter.
func (f *SPF) Check(msg *mail.Message) Result {
	r, _ := f.Probe(msg)
	return r
}

// Probe implements Prober: TempError (a DNS lookup failed transiently)
// is an infrastructure error; every other non-Fail result passes, as in
// the paper's conservative deployment.
func (f *SPF) Probe(msg *mail.Message) (Result, error) {
	if msg.EnvelopeFrom.IsNull() {
		return Result{Verdict: Pass}, nil // bounces have no sender domain to check
	}
	switch f.checker.Check(msg.ClientIP, msg.EnvelopeFrom.Domain) {
	case spf.Fail:
		return Result{Drop, "SPF fail for " + msg.EnvelopeFrom.Domain}, nil
	case spf.TempError:
		return Result{}, fmt.Errorf("spf: %w for %s", dnssim.ErrTimeout, msg.EnvelopeFrom.Domain)
	default:
		return Result{Verdict: Pass}, nil
	}
}

// Reputation drops messages from suspect-band senders before the
// expensive probe filters run, consulting the shared sender-reputation
// store. It is the "tightening" half of the reputation subsystem (the
// trusted fast path lives in core.Engine, which skips the whole chain).
// The store is advisory infrastructure: a failed lookup is an
// infrastructure error, so under Harden with FailOpen the message
// passes through to the rest of the chain — a reputation outage never
// blocks mail.
type Reputation struct {
	store *reputation.Store
}

// NewReputation returns the reputation chain stage over store.
func NewReputation(store *reputation.Store) *Reputation {
	return &Reputation{store: store}
}

// Name implements Filter.
func (f *Reputation) Name() string { return "reputation" }

// Check implements Filter; lookup failures pass (fail-open).
func (f *Reputation) Check(msg *mail.Message) Result {
	r, _ := f.Probe(msg)
	return r
}

// Probe implements Prober: a store outage is an infrastructure error,
// a suspect-band verdict drops, anything else passes.
func (f *Reputation) Probe(msg *mail.Message) (Result, error) {
	v, err := f.store.Lookup(msg.EnvelopeFrom, msg.ClientIP)
	if err != nil {
		return Result{}, err
	}
	if v.Band == reputation.Suspect {
		return Result{Drop, fmt.Sprintf("suspect-sender(score=%.2f,mass=%.1f)", v.Score, v.Mass)}, nil
	}
	return Result{Verdict: Pass}, nil
}

// Hardened wraps a Prober with the full degradation path: a circuit
// breaker guarding the dependency, bounded retries with jittered backoff
// for transient errors, and an explicit DegradeMode for when both give
// up. It is safe for concurrent use.
type Hardened struct {
	inner   Prober
	mode    DegradeMode
	breaker *resilience.Breaker
	retrier *resilience.Retrier
}

// HardenOpts parameterises Harden. Zero values get sensible defaults.
type HardenOpts struct {
	// Breaker guards the dependency; nil builds one from
	// resilience.DefaultBreakerConfig (requires Clock).
	Breaker *resilience.Breaker
	// Retrier bounds in-line retries; nil builds a 3-attempt retrier
	// with the default backoff and no sleeping (safe in simulation).
	Retrier *resilience.Retrier
	// Seed seeds the default retrier's jitter source.
	Seed int64
}

// Harden wraps inner with the given degradation policy.
func Harden(inner Prober, mode DegradeMode, opts HardenOpts) *Hardened {
	br := opts.Breaker
	rt := opts.Retrier
	if rt == nil {
		rt = resilience.NewRetrier(3, resilience.DefaultBackoff(), opts.Seed)
	}
	return &Hardened{inner: inner, mode: mode, breaker: br, retrier: rt}
}

// Name implements Filter (the wrapper is transparent in reports).
func (h *Hardened) Name() string { return h.inner.Name() }

// Mode returns the configured degradation policy.
func (h *Hardened) Mode() DegradeMode { return h.mode }

// Check implements Filter, resolving degradation per the policy.
func (h *Hardened) Check(msg *mail.Message) Result {
	r, _ := h.Run(msg)
	return r
}

// Probe implements Prober by delegating to the wrapped filter's single
// (unguarded) probe; the guarded path is Run.
func (h *Hardened) Probe(msg *mail.Message) (Result, error) { return h.inner.Probe(msg) }

// Run evaluates the filter behind the breaker and retrier. degraded is
// true when the dependency stayed unavailable and the returned Result is
// the policy's fallback (Pass for FailOpen, Drop for FailClosed).
func (h *Hardened) Run(msg *mail.Message) (r Result, degraded bool) {
	if h.breaker != nil && !h.breaker.Allow() {
		return h.fallback(), true
	}
	err := h.retrier.Do(func() error {
		var perr error
		r, perr = h.inner.Probe(msg)
		return perr
	})
	if h.breaker != nil {
		h.breaker.Record(err)
	}
	if err != nil {
		return h.fallback(), true
	}
	return r, false
}

// fallback returns the degraded-mode result.
func (h *Hardened) fallback() Result {
	if h.mode == FailClosed {
		return Result{Drop, h.inner.Name() + " unavailable (fail-closed)"}
	}
	return Result{Pass, h.inner.Name() + " unavailable (fail-open)"}
}

// Degradation records one filter falling back to its policy while
// evaluating a message.
type Degradation struct {
	Filter string
	Mode   DegradeMode
}

// Outcome is the full result of running a message through a Chain.
type Outcome struct {
	Result Result
	// DroppedBy names the dropping filter ("" if the message passed).
	DroppedBy string
	// Degraded lists every filter that fell back to its degradation
	// policy for this message, in evaluation order.
	Degraded []Degradation
}

// Chain runs filters in order, stopping at the first Drop. It keeps no
// state of its own, so it is safe for concurrent use when its filters
// are.
type Chain struct {
	filters []Filter
}

// NewChain builds a chain over the given filters, evaluated in order.
func NewChain(fs ...Filter) *Chain {
	return &Chain{filters: fs}
}

// Run evaluates msg against every filter in order, short-circuiting on
// the first Drop, and reports any degradation that occurred. Hardened
// filters go through their guarded path; bare filters use Check.
func (c *Chain) Run(msg *mail.Message) Outcome {
	var out Outcome
	for _, f := range c.filters {
		var r Result
		if h, ok := f.(*Hardened); ok {
			var deg bool
			r, deg = h.Run(msg)
			if deg {
				out.Degraded = append(out.Degraded, Degradation{Filter: h.Name(), Mode: h.Mode()})
			}
		} else {
			r = f.Check(msg)
		}
		if r.Verdict == Drop {
			out.Result = r
			out.DroppedBy = f.Name()
			return out
		}
	}
	out.Result = Result{Verdict: Pass}
	return out
}
