// Package core implements the challenge-response anti-spam engine the
// paper studies: the MTA-IN acceptance checks, the internal email
// dispatcher with its white/black/gray spools, the quarantine with 30-day
// expiry, challenge emission, and the four whitelisting mechanisms.
//
// The lifecycle mirrors the product's Figure 1. Incoming mail first passes
// the MTA-IN checks (well-formed addresses, resolvable sender domain,
// relay policy, known recipient) which in the study dropped >75% of
// traffic. Survivors reach the dispatcher: senders on the recipient's
// blacklist are dropped, whitelisted senders are delivered instantly, and
// everything else lands in the gray spool where the auxiliary filter
// chain (antivirus, reverse-DNS, RBL) drops the obvious junk; the rest is
// quarantined and a challenge email is sent back to the (possibly
// spoofed) sender.
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bodystore"
	"repro/internal/captcha"
	"repro/internal/clock"
	"repro/internal/digest"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/reputation"
	"repro/internal/whitelist"
)

// MTAReason is the outcome of the MTA-IN acceptance checks. The non-zero
// reasons correspond to the paper's drop-reason table (§2): malformed
// 0.06%, unresolvable 4.19%, no-relay 2.27%, sender-rejected 0.03%,
// unknown-recipient 62.36%.
type MTAReason int

// MTA-IN outcomes.
const (
	// Accepted: the message passed all MTA-IN checks.
	Accepted MTAReason = iota
	// Malformed: sender or recipient address fails RFC 822 validation.
	Malformed
	// Unresolvable: the sender's domain does not resolve.
	Unresolvable
	// NoRelay: the recipient domain is not served by this installation.
	NoRelay
	// SenderRejected: the sender is administratively rejected.
	SenderRejected
	// UnknownRecipient: no such user (non-open-relay installations only).
	UnknownRecipient
)

// String returns the report label for the reason.
func (r MTAReason) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case Malformed:
		return "malformed"
	case Unresolvable:
		return "unresolvable-domain"
	case NoRelay:
		return "no-relay"
	case SenderRejected:
		return "sender-rejected"
	case UnknownRecipient:
		return "unknown-recipient"
	default:
		return fmt.Sprintf("MTAReason(%d)", int(r))
	}
}

// DeliveryVia records how a message reached the user's inbox, for the
// delay analysis of Figures 7 and 8.
type DeliveryVia int

// Delivery paths.
const (
	// ViaWhitelist: sender already whitelisted; instant delivery.
	ViaWhitelist DeliveryVia = iota
	// ViaChallenge: the sender solved the CAPTCHA.
	ViaChallenge
	// ViaDigest: the user authorized the message from the daily digest.
	ViaDigest
)

// String returns the path label.
func (v DeliveryVia) String() string {
	switch v {
	case ViaWhitelist:
		return "whitelist"
	case ViaChallenge:
		return "challenge"
	case ViaDigest:
		return "digest"
	default:
		return fmt.Sprintf("DeliveryVia(%d)", int(v))
	}
}

// Delivery is one message delivered to a user's inbox.
type Delivery struct {
	MsgID       string
	User        mail.Address
	Sender      mail.Address
	Via         DeliveryVia
	QueuedAt    time.Time // when the MTA accepted the message
	DeliveredAt time.Time
	// Body refers to the message's body in Config.Bodies; the zero Ref
	// when the body stays on the message. The inbox sink owns it from
	// here: it keeps it or frees it.
	Body bodystore.Ref
}

// Delay returns how long the message waited before delivery.
func (d Delivery) Delay() time.Duration { return d.DeliveredAt.Sub(d.QueuedAt) }

// OutboundChallenge is the challenge email the engine asks its transport
// to deliver. The transport (internal/simnet in experiments, internal/smtp
// in a live deployment) owns delivery, retries and bounce handling.
type OutboundChallenge struct {
	MsgID string
	Token string
	From  mail.Address // the installation's challenge sender address
	To    mail.Address // the original (possibly spoofed) envelope sender
	// ClientIP is the address the challenged message came from, carried
	// so the measurement pipeline can re-run SPF over it (Figure 12).
	// The spool does not persist it.
	ClientIP string
	// Subject is the quarantined message's subject, carried so the
	// measurement pipeline can run the §4.1 campaign clustering over
	// challenged messages.
	Subject string
	URL     string
	Size    int // bytes on the wire, for the RT traffic ratio
	Issued  time.Time
}

// ChallengeSender delivers outbound challenges.
type ChallengeSender func(ch OutboundChallenge)

// The engine's fixed parameters.
const (
	// challengeSize is the on-the-wire size in bytes of one challenge
	// email with its headers, counted for the RT traffic ratio (the
	// paper's RT sensor measured sizes from headers).
	challengeSize = 1800
	// dnsRetries bounds the in-line resolvability retries before the
	// DNSDegrade policy applies.
	dnsRetries = 2
)

// Config parameterises an Engine.
type Config struct {
	// Name identifies the installation in reports (e.g. "company-07").
	Name string
	// Domains are the local domains this installation serves.
	Domains []string
	// OpenRelay, when true, additionally accepts mail for RelayDomains
	// addressed to any mailbox (13 of the study's 47 servers were open
	// relays, §2).
	OpenRelay bool
	// RelayDomains are the extra domains relayed in open-relay mode.
	RelayDomains []string
	// QuarantineTTL is how long gray messages wait before being dropped;
	// the product used 30 days.
	QuarantineTTL time.Duration
	// ChallengeFrom is the sender address of challenge emails.
	ChallengeFrom mail.Address
	// ChallengeBaseURL is the public base of the CAPTCHA web server.
	ChallengeBaseURL string
	// Seed makes CAPTCHA generation deterministic per installation.
	Seed int64
	// MaxChallengesPerHour caps outbound challenge volume (0 = no cap).
	// §6 warns that an attacker can force a CR server to spray challenges
	// into spamtraps until its IP is blacklisted; a rate cap bounds that
	// exposure. Over-cap gray messages are quarantined without a
	// challenge and remain rescuable from the digest.
	MaxChallengesPerHour int
	// DNSDegrade is the MTA-IN's policy when the sender-domain
	// resolvability check cannot be answered because the resolver itself
	// is failing (as opposed to an authoritative NXDOMAIN). The default,
	// FailOpen, accepts the message — a resolver outage must not bounce
	// the whole mail stream; the unresolvable-domain drop (§2) only
	// applies to authoritative negatives.
	DNSDegrade filters.DegradeMode
	// Bodies keeps the body of every message that outlives Receive: the
	// quarantined ones, and the ones handed to the inbox sink. nil copies
	// each such body onto the heap, which is right for a caller whose
	// bodies are borrowed, as smtp.Backend.Deliver's are.
	Bodies Bodies
}

// Bodies keeps message bodies past Receive. A *bodystore.Store keeps them
// on disk. Implementations must be safe for concurrent use.
type Bodies interface {
	// Put keeps body, which the caller may reuse once Receive returns,
	// and returns a reference to it; or the zero Ref and the string the
	// message holds instead.
	Put(body string) (bodystore.Ref, string)
	// Free releases a non-zero reference Put returned.
	Free(bodystore.Ref)
}

// quarantined is one message waiting in the gray spool, and the engine's
// one record of it: the quarantine map finds it by ID, and the recipient
// and pending-challenge indexes are links through it. The field order
// packs it into 80 bytes.
type quarantined struct {
	msg      *mail.Message
	ch       *captcha.Challenge // the challenge guarding msg; nil if none was sent
	queuedAt time.Time
	// prev and next link the recipient's list (rcptList).
	prev, next *quarantined
	// held links the ring of messages held under msg's (recipient,
	// sender) pair in pendingChallenge, when pending.
	held    *quarantined
	body    bodystore.Ref // msg's body in Config.Bodies, if it took it
	pending bool
}

// rcptList is one recipient's quarantined messages, doubly linked
// through quarantined.prev and next, with their count.
type rcptList struct {
	head *quarantined
	n    int
}

// Metrics is a snapshot of the engine's counters. All counters are
// cumulative since engine construction.
type Metrics struct {
	// MTA-IN.
	MTAIncoming int64 // messages presented to the MTA-IN
	MTAInBytes  int64
	MTADropped  map[MTAReason]int64

	// Dispatcher.
	SpoolWhite    int64
	SpoolBlack    int64
	SpoolGray     int64
	DispatchBytes int64 // bytes of all messages reaching the CR filter (for RT)

	// Gray outcomes.
	FilterDropped  map[string]int64 // by filter name
	ChallengesSent int64
	ChallengeBytes int64
	QuarantineOnly int64 // null-sender gray messages (never challenged)
	// ChallengeSuppressed counts gray messages quarantined without a new
	// challenge because the same (recipient, sender) pair already has one
	// outstanding — the product never pesters a sender twice for the same
	// mailbox.
	ChallengeSuppressed int64
	// ChallengeRateLimited counts gray messages quarantined without a
	// challenge because the hourly outbound cap was reached.
	ChallengeRateLimited int64
	// ChallengeLoopSuppressed counts gray messages that carried an
	// Auto-Submitted header (RFC 3834) and were quarantined without a
	// counter-challenge — the guard that keeps two CR deployments from
	// challenging each other's challenges forever.
	ChallengeLoopSuppressed int64
	// ChallengeBounced counts inbound DSNs correlated back to an
	// outstanding challenge, by bounce class (no-user, no-domain,
	// blocklisted, expired, other). DSNOrphaned counts parsed DSNs
	// that matched no outstanding challenge (late bounces, backscatter
	// aimed at the challenge sender).
	ChallengeBounced map[string]int64
	DSNOrphaned      int64
	// FilterDegraded counts, per filter name, gray-spool evaluations in
	// which the filter's dependency was unavailable and its degradation
	// policy decided the outcome.
	FilterDegraded map[string]int64
	// MTADegradedAccept counts messages that cleared every MTA-IN check
	// although the sender domain's resolvability could not be determined
	// (resolver failure) under a fail-open DNSDegrade policy;
	// MTADegradedDrop counts the fail-closed mirror (reported as
	// Unresolvable drops as well). A message whose resolvability was
	// waived but that a later MTA check rejected counts in neither (its
	// maillog degraded event carries action "waived").
	MTADegradedAccept int64
	MTADegradedDrop   int64

	// Reputation. ReputationFastPath counts gray messages whose
	// trusted-band sender skipped the auxiliary probe chain entirely
	// (the fast path — each hit saves every probe the chain would have
	// run); ReputationSuspect counts gray messages the reputation chain
	// stage dropped on a suspect-band verdict.
	ReputationFastPath int64
	ReputationSuspect  int64

	// Deliveries and quarantine.
	Delivered         map[DeliveryVia]int64
	QuarantineExpired int64
	DigestDeleted     int64
}

// counterStripes is the shard count of the lock-striped string-keyed
// counter maps. Filter/component name cardinality is tiny (a handful of
// filters), so a small power of two keeps the memory footprint low while
// still splitting contention across lanes.
const counterStripes = 8

// stripedCounts is a lock-striped map[string]*atomic.Int64 for keyed
// aggregates on the hot path (filter drops, degraded decisions). The
// common case — bumping a counter that already exists — takes a shard
// read-lock plus one atomic add and never allocates.
type stripedCounts struct {
	shards [counterStripes]struct {
		mu sync.RWMutex
		m  map[string]*atomic.Int64
	}
}

func newStripedCounts() *stripedCounts {
	sc := &stripedCounts{}
	for i := range sc.shards {
		sc.shards[i].m = make(map[string]*atomic.Int64)
	}
	return sc
}

// strHash is FNV-1a over s without converting to []byte.
func strHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// add increments the named counter by delta.
func (sc *stripedCounts) add(key string, delta int64) {
	sh := &sc.shards[strHash(key)%counterStripes]
	sh.mu.RLock()
	c := sh.m[key]
	sh.mu.RUnlock()
	if c == nil {
		sh.mu.Lock()
		if c = sh.m[key]; c == nil {
			c = new(atomic.Int64)
			sh.m[key] = c
		}
		sh.mu.Unlock()
	}
	c.Add(delta)
}

// snapshot copies the counters into a fresh map.
func (sc *stripedCounts) snapshot() map[string]int64 {
	out := make(map[string]int64)
	for i := range sc.shards {
		sh := &sc.shards[i]
		sh.mu.RLock()
		for k, c := range sh.m {
			out[k] = c.Load()
		}
		sh.mu.RUnlock()
	}
	return out
}

// counters is the engine's sharded bookkeeping: one atomic per scalar
// metric, fixed atomic arrays for the enum-keyed aggregates, and
// lock-striped maps for the string-keyed ones. Incrementing any of them
// from the per-message path takes no engine-wide lock; Metrics()
// assembles a snapshot by loading each one.
type counters struct {
	mtaIncoming atomic.Int64
	mtaInBytes  atomic.Int64
	mtaDropped  [UnknownRecipient + 1]atomic.Int64 // by MTAReason

	spoolWhite    atomic.Int64
	spoolBlack    atomic.Int64
	spoolGray     atomic.Int64
	dispatchBytes atomic.Int64

	filterDropped           *stripedCounts // by filter name
	challengesSent          atomic.Int64
	challengeBytes          atomic.Int64
	quarantineOnly          atomic.Int64
	challengeSuppressed     atomic.Int64
	challengeRateLimited    atomic.Int64
	challengeLoopSuppressed atomic.Int64
	challengeBounced        *stripedCounts // by DSN class
	dsnOrphaned             atomic.Int64
	filterDegraded          *stripedCounts // by component name
	mtaDegradedAccept       atomic.Int64
	mtaDegradedDrop         atomic.Int64

	reputationFastPath atomic.Int64
	reputationSuspect  atomic.Int64

	delivered         [ViaDigest + 1]atomic.Int64 // by DeliveryVia
	quarantineExpired atomic.Int64
	digestDeleted     atomic.Int64
}

// Engine is one company's CR installation. It is safe for concurrent use.
//
// Concurrency design: counters live in per-counter atomics and striped
// maps (see counters); the optional callbacks (event sink, inbox sink,
// challenge sender, reputation store) are atomic pointers loaded without
// locking; the read-mostly account tables (users, rejected) sit behind an
// RWMutex; and e.mu — the only remaining exclusive lock — guards just the
// quarantine state machine (quarantine, its byRcpt and pendingChallenge
// links, and each quarantined record's challenge) and the challenge rate
// window.
type Engine struct {
	cfg      Config
	clk      clock.Clock
	resolver dnssim.Resolver
	chain    *filters.Chain
	wl       *whitelist.Store
	captcha  *captcha.Service

	sendCh   atomic.Pointer[ChallengeSender]
	sink     atomic.Pointer[func(maillog.Event)]           // optional decision log
	inbox    atomic.Pointer[func(Delivery, *mail.Message)] // optional delivery store
	rep      atomic.Pointer[reputation.Store]              // optional sender-reputation store
	svcObs   atomic.Pointer[func(time.Duration)]           // optional service-latency observer
	pressure atomic.Pointer[func() bool]                   // optional overload-pressure probe

	acctMu   sync.RWMutex
	users    map[mail.Address]bool // protected accounts, by canonical address
	rejected map[mail.Address]bool // administratively rejected senders

	mu         sync.Mutex
	quarantine map[string]*quarantined
	// byRcpt lists the quarantine by canonical recipient so digest
	// assembly touches only the user's own items instead of scanning
	// the whole spool.
	byRcpt map[mail.Address]*rcptList
	// pendingChallenge tracks outstanding challenges per (recipient,
	// sender) pair so a sender is challenged at most once per mailbox
	// at a time; later messages queue behind the first. The queue is a
	// ring through quarantined.held: the map holds its last message,
	// whose held link is the first, so appending takes no walk.
	pendingChallenge map[pairKey]*quarantined
	// rate limiting window state.
	rateWindowStart time.Time
	rateWindowCount int

	c counters
}

// pairKey identifies a (recipient, sender) challenge relationship. Both
// addresses are stored canonicalised, so the struct is directly usable
// as a comparable map key with no string concatenation.
type pairKey struct {
	rcpt   mail.Address
	sender mail.Address
}

func makePairKey(rcpt, sender mail.Address) pairKey {
	return pairKey{rcpt: rcpt.Canonical(), sender: sender.Canonical()}
}

// New constructs an Engine.
//
// The filter chain is owned by the caller so experiments can compose
// different chains (§5.2 evaluates adding SPF). sendCh may be nil at
// construction and installed later with SetChallengeSender — the simnet
// and the engine reference each other.
func New(cfg Config, clk clock.Clock, resolver dnssim.Resolver, chain *filters.Chain, wl *whitelist.Store, sendCh ChallengeSender) *Engine {
	if cfg.QuarantineTTL <= 0 {
		cfg.QuarantineTTL = captcha.DefaultTTL
	}
	e := &Engine{
		cfg:              cfg,
		clk:              clk,
		resolver:         resolver,
		chain:            chain,
		wl:               wl,
		users:            make(map[mail.Address]bool),
		rejected:         make(map[mail.Address]bool),
		quarantine:       make(map[string]*quarantined),
		byRcpt:           make(map[mail.Address]*rcptList),
		pendingChallenge: make(map[pairKey]*quarantined),
	}
	if sendCh != nil {
		e.sendCh.Store(&sendCh)
	}
	e.c.filterDropped = newStripedCounts()
	e.c.filterDegraded = newStripedCounts()
	e.c.challengeBounced = newStripedCounts()
	e.captcha = captcha.NewService(captcha.Config{
		Clock:    clk,
		TTL:      cfg.QuarantineTTL,
		OnSolved: e.onChallengeSolved,
		OnVisit: func(ch *captcha.Challenge) {
			e.emit(maillog.KindWebVisit, ch.MsgID, "token", ch.Token)
		},
		Seed: cfg.Seed,
	})
	// The challenge sender's mailbox exists (DSNs for undeliverable
	// challenges are addressed to it), but it is an administrative
	// account rather than a protected human user.
	if !cfg.ChallengeFrom.IsNull() && cfg.ChallengeFrom != (mail.Address{}) {
		e.users[cfg.ChallengeFrom.Canonical()] = true
	}
	return e
}

// SetChallengeSender installs the outbound challenge transport.
func (e *Engine) SetChallengeSender(s ChallengeSender) {
	if s == nil {
		e.sendCh.Store(nil)
		return
	}
	e.sendCh.Store(&s)
}

// SetInboxSink installs a delivery store: every message that reaches a
// user's inbox is handed over with its Delivery record, so a deployment
// can persist mail (internal/mailbox) instead of only counting it.
func (e *Engine) SetInboxSink(sink func(Delivery, *mail.Message)) {
	if sink == nil {
		e.inbox.Store(nil)
		return
	}
	e.inbox.Store(&sink)
}

// SetEventSink installs a decision-log sink: every MTA verdict, spool
// decision, filter drop, challenge, delivery and web event is reported
// as a maillog.Event — the log stream the paper's measurement pipeline
// was built on. The sink runs synchronously; keep it fast.
func (e *Engine) SetEventSink(sink func(maillog.Event)) {
	if sink == nil {
		e.sink.Store(nil)
		return
	}
	e.sink.Store(&sink)
}

// SetReputation installs the sender-reputation store. Once installed,
// the engine records every classification outcome into it and consults
// it before running the gray-spool filter chain: trusted-band senders
// skip the probe filters entirely. The store is advisory — a lookup
// failure degrades fail-open to the full chain, never blocking mail.
func (e *Engine) SetReputation(s *reputation.Store) {
	e.rep.Store(s)
}

// Reputation returns the installed reputation store (nil if none).
func (e *Engine) Reputation() *reputation.Store {
	return e.rep.Load()
}

// SetServiceObserver installs a per-message service-latency observer:
// every Receive reports its wall (or virtual) duration, which an
// admission controller (internal/overload) feeds to its AIMD limiter.
// The observation uses the engine's injected clock, so simulated
// latency windows are observed exactly.
func (e *Engine) SetServiceObserver(fn func(time.Duration)) {
	if fn == nil {
		e.svcObs.Store(nil)
		return
	}
	e.svcObs.Store(&fn)
}

// SetPressure installs an overload-pressure probe. When it reports
// true, handleGray sheds the probe filter chain — the expensive,
// advisory part of the pipeline — through the same degradation path a
// dependency outage uses (fail-open, counted in FilterDegraded under
// "overload", logged as a degraded event), and proceeds straight to
// challenge/quarantine. Mail handling itself is never shed here; that
// is the admission controller's job.
func (e *Engine) SetPressure(fn func() bool) {
	if fn == nil {
		e.pressure.Store(nil)
		return
	}
	e.pressure.Store(&fn)
}

// recordRep adds one outcome observation for (sender, ip), if a
// reputation store is installed.
func (e *Engine) recordRep(sender mail.Address, ip string, o reputation.Outcome) {
	if rep := e.rep.Load(); rep != nil {
		rep.Record(sender, ip, o)
	}
}

// RecordChallengeBounce notes that a challenge emailed to sender came
// back undeliverable (no such user / no such domain) — the spoofed-
// sender signature, which the transport layer observes and the
// reputation store turns into negative evidence.
func (e *Engine) RecordChallengeBounce(sender mail.Address) {
	e.recordRep(sender, "", reputation.Bounced)
}

// emit reports an event to the sink, if one is installed. kvs are
// alternating key/value pairs; they ride in the event's inline pair
// storage, so emitting allocates nothing beyond what the sink keeps.
func (e *Engine) emit(kind maillog.Kind, msgID string, kvs ...string) {
	sink := e.sink.Load()
	if sink == nil {
		return
	}
	(*sink)(maillog.MakeEvent(e.clk.Now(), e.cfg.Name, kind, msgID, kvs...))
}

// logging reports whether an event sink is installed, so hot-path call
// sites can skip rendering field values (itoa, address keys) that emit
// would discard anyway.
func (e *Engine) logging() bool { return e.sink.Load() != nil }

// Name returns the installation name.
func (e *Engine) Name() string { return e.cfg.Name }

// Config returns a copy of the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Captcha returns the engine's challenge service (its HTTP handler is
// mounted by cmd/crserver; the simulation solves challenges through it).
func (e *Engine) Captcha() *captcha.Service { return e.captcha }

// Whitelists returns the engine's whitelist store.
func (e *Engine) Whitelists() *whitelist.Store { return e.wl }

// AddUser registers a protected account.
func (e *Engine) AddUser(user mail.Address) {
	e.acctMu.Lock()
	e.users[user.Canonical()] = true
	e.acctMu.Unlock()
}

// Users returns the number of protected accounts.
func (e *Engine) Users() int {
	e.acctMu.RLock()
	defer e.acctMu.RUnlock()
	return len(e.users)
}

// HasUser reports whether user is a protected account.
func (e *Engine) HasUser(user mail.Address) bool {
	e.acctMu.RLock()
	defer e.acctMu.RUnlock()
	return e.users[user.Canonical()]
}

// RejectSender administratively rejects a sender address at the MTA-IN
// (the paper's rare "Sender rejected" reason, 0.03%).
func (e *Engine) RejectSender(sender mail.Address) {
	e.acctMu.Lock()
	e.rejected[sender.Canonical()] = true
	e.acctMu.Unlock()
}

func (e *Engine) localDomain(d string) bool {
	for _, ld := range e.cfg.Domains {
		if ld == d {
			return true
		}
	}
	return false
}

func (e *Engine) relayDomain(d string) bool {
	for _, rd := range e.cfg.RelayDomains {
		if rd == d {
			return true
		}
	}
	return false
}

// CheckMTAIn runs the MTA-IN acceptance checks on msg without dispatching
// it, returning the verdict. Exposed separately so the SMTP front end can
// reject at RCPT time with the right status code.
func (e *Engine) CheckMTAIn(msg *mail.Message) MTAReason {
	r, _ := e.checkMTAIn(msg)
	return r
}

// checkMTAIn is CheckMTAIn plus the degradation channel: degraded is true
// when the resolvability verdict came from the DNSDegrade policy because
// the resolver itself was failing.
func (e *Engine) checkMTAIn(msg *mail.Message) (reason MTAReason, degraded bool) {
	// 1. Well-formed addresses (RFC 822). Messages are handed to us with
	// parsed addresses; a zero recipient or an unparsable raw form counts
	// as malformed. The null envelope sender is legal (bounces).
	if msg.Rcpt == (mail.Address{}) {
		return Malformed, false
	}
	// 2. Resolvable sender domain.
	if !msg.EnvelopeFrom.IsNull() {
		ok, deg := e.resolverOK(msg.EnvelopeFrom.Domain)
		degraded = deg
		if !ok {
			return Unresolvable, degraded
		}
	}
	// 3. Relay policy.
	if !e.localDomain(msg.Rcpt.Domain) {
		if !(e.cfg.OpenRelay && e.relayDomain(msg.Rcpt.Domain)) {
			return NoRelay, degraded
		}
	}
	// 4. Administratively rejected sender.
	e.acctMu.RLock()
	rej := e.rejected[msg.EnvelopeFrom.Canonical()]
	known := e.users[msg.Rcpt.Canonical()]
	e.acctMu.RUnlock()
	if rej {
		return SenderRejected, degraded
	}
	// 5. Recipient must exist for local domains. Open relays accept mail
	// for relayed domains without a user database — that is why the
	// paper's open-relay servers passed most messages to the next layer.
	if e.localDomain(msg.Rcpt.Domain) && !known {
		return UnknownRecipient, degraded
	}
	return Accepted, degraded
}

// resolverOK answers "is the sender domain resolvable", retrying bounded
// times across temporary resolver failures; if the resolver stays down
// the DNSDegrade policy decides (degraded=true): fail-open treats the
// domain as resolvable, fail-closed as unresolvable.
func (e *Engine) resolverOK(domain string) (ok, degraded bool) {
	attempts := dnsRetries + 1
	for i := 0; i < attempts; i++ {
		ok, err := e.resolver.ResolvableErr(domain)
		if err == nil {
			return ok, false
		}
	}
	return e.cfg.DNSDegrade == filters.FailOpen, true
}

// Receive is the full per-message pipeline: MTA-IN checks, then dispatch.
// It returns the MTA verdict; when Accepted, the dispatch decision has
// been made and any side effects (delivery, challenge, quarantine) have
// happened.
func (e *Engine) Receive(msg *mail.Message) MTAReason {
	if obs := e.svcObs.Load(); obs != nil {
		start := e.clk.Now()
		defer func() { (*obs)(e.clk.Now().Sub(start)) }()
	}
	e.c.mtaIncoming.Add(1)
	e.c.mtaInBytes.Add(int64(msg.Size))

	r, degraded := e.checkMTAIn(msg)
	if degraded {
		var action string
		switch r {
		case Unresolvable:
			action = "drop"
			e.c.mtaDegradedDrop.Add(1)
		case Accepted:
			action = "accept"
			e.c.mtaDegradedAccept.Add(1)
		default:
			// Resolvability was waived fail-open, but a later MTA-IN check
			// (relay policy, rejected sender, unknown recipient) rejected
			// the message anyway — not a degraded accept.
			action = "waived"
		}
		e.emit(maillog.KindDegraded, msg.ID,
			"component", "dns-resolve", "mode", e.cfg.DNSDegrade.String(), "action", action)
	}
	if r != Accepted {
		e.c.mtaDropped[r].Add(1)
		if e.logging() {
			e.emit(maillog.KindMTADrop, msg.ID, "reason", r.String(), "size", itoa(msg.Size))
		}
		return r
	}
	if e.logging() {
		e.emit(maillog.KindMTAAccept, msg.ID, "size", itoa(msg.Size))
	}
	e.dispatch(msg)
	return Accepted
}

func itoa(n int) string { return strconv.Itoa(n) }

// dispatch routes an accepted message to white, black or gray.
func (e *Engine) dispatch(msg *mail.Message) {
	e.c.dispatchBytes.Add(int64(msg.Size))
	user, sender := msg.Rcpt, msg.EnvelopeFrom
	var black, white bool
	if !sender.IsNull() {
		black, white = e.wl.Classify(user, sender)
	}
	switch {
	case black: // a sender on both lists is blacklisted
		e.c.spoolBlack.Add(1)
		e.emit(maillog.KindDispatch, msg.ID, "spool", "black")
		e.recordRep(sender, msg.ClientIP, reputation.Spam)
	case white:
		e.c.spoolWhite.Add(1)
		e.emit(maillog.KindDispatch, msg.ID, "spool", "white")
		e.deliver(msg, ViaWhitelist, bodystore.Ref{})
	default:
		e.c.spoolGray.Add(1)
		e.emit(maillog.KindDispatch, msg.ID, "spool", "gray")
		e.handleGray(msg)
	}
}

// handleGray runs the auxiliary filters and challenges survivors. When
// a reputation store is installed the engine consults it first: a
// trusted-band sender skips the probe chain entirely (fast path) and
// proceeds straight to the challenge/quarantine stage. The skip is
// never silent — a maillog "reputation" event records the band, score
// and contributing keys, and Metrics.ReputationFastPath counts it.
func (e *Engine) handleGray(msg *mail.Message) {
	if p := e.pressure.Load(); p != nil && (*p)() && e.chain != nil {
		// Overload pressure: shed the probe chain fail-open. The message
		// still goes through challenge/quarantine — the CR core — so no
		// mail is lost, only auxiliary filtering deferred.
		e.c.filterDegraded.add("overload", 1)
		e.emit(maillog.KindDegraded, msg.ID,
			"component", "overload", "mode", filters.FailOpen.String(), "action", "pass")
		e.challengeOrQuarantine(msg)
		return
	}
	rep := e.rep.Load()
	if rep != nil && e.chain != nil && !msg.EnvelopeFrom.IsNull() {
		v, err := rep.Lookup(msg.EnvelopeFrom, msg.ClientIP)
		switch {
		case err != nil:
			// Store unavailable: reputation is advisory, so fail open to
			// the full filter chain — never block or drop on its account.
			e.c.filterDegraded.add("reputation", 1)
			e.emit(maillog.KindDegraded, msg.ID,
				"component", "reputation", "mode", filters.FailOpen.String(), "action", "pass")
		case v.Band == reputation.Trusted:
			e.c.reputationFastPath.Add(1)
			e.emitReputation(msg.ID, "fast-path", v)
			e.challengeOrQuarantine(msg)
			return
		}
	}
	if e.chain != nil {
		o := e.chain.Run(msg)
		for _, d := range o.Degraded {
			e.c.filterDegraded.add(d.Filter, 1)
			action := "pass"
			if d.Mode == filters.FailClosed {
				action = "drop"
			}
			e.emit(maillog.KindDegraded, msg.ID,
				"component", d.Filter, "mode", d.Mode.String(), "action", action)
		}
		if o.Result.Verdict == filters.Drop {
			e.c.filterDropped.add(o.DroppedBy, 1)
			if o.DroppedBy == "reputation" {
				e.c.reputationSuspect.Add(1)
			}
			e.emit(maillog.KindFilterDrop, msg.ID, "filter", o.DroppedBy)
			switch o.DroppedBy {
			case "reputation":
				// The store's own verdict dropped the message. Recording
				// that as fresh spam evidence would let the verdict feed
				// itself; emit the explain event and leave the counters
				// alone.
				if rep != nil {
					e.emitReputation(msg.ID, "suspect", rep.Score(msg.EnvelopeFrom, msg.ClientIP))
				}
			case "rbl":
				e.recordRep(msg.EnvelopeFrom, msg.ClientIP, reputation.RBLHit)
			default:
				e.recordRep(msg.EnvelopeFrom, msg.ClientIP, reputation.Spam)
			}
			return
		}
	}
	e.challengeOrQuarantine(msg)
}

// emitReputation logs one reputation decision with its evidence.
func (e *Engine) emitReputation(msgID, action string, v reputation.Verdict) {
	if !e.logging() {
		return
	}
	keys := make([]string, len(v.Keys()))
	for i, k := range v.Keys() {
		keys[i] = k.Key()
	}
	e.emit(maillog.KindReputation, msgID,
		"action", action,
		"band", v.Band.String(),
		"score", strconv.FormatFloat(v.Score, 'f', 3, 64),
		"keys", strings.Join(keys, ","))
}

// addQuarLocked inserts q into the quarantine and its recipient's list.
// Callers must hold e.mu.
func (e *Engine) addQuarLocked(q *quarantined) {
	e.quarantine[q.msg.ID] = q
	rk := q.msg.Rcpt.Canonical()
	l := e.byRcpt[rk]
	if l == nil {
		l = &rcptList{}
		e.byRcpt[rk] = l
	}
	q.next = l.head
	if l.head != nil {
		l.head.prev = q
	}
	l.head = q
	l.n++
}

// delQuarLocked removes q from the quarantine, its recipient's list and,
// if it is held there, its pair's pending queue. Callers must hold e.mu.
func (e *Engine) delQuarLocked(q *quarantined) {
	delete(e.quarantine, q.msg.ID)
	rk := q.msg.Rcpt.Canonical()
	if l := e.byRcpt[rk]; l != nil {
		if q.prev != nil {
			q.prev.next = q.next
		} else {
			l.head = q.next
		}
		if q.next != nil {
			q.next.prev = q.prev
		}
		q.prev, q.next = nil, nil
		if l.n--; l.n == 0 {
			delete(e.byRcpt, rk)
		}
	}
	if q.pending {
		e.unholdLocked(q)
	}
}

// holdLocked appends q to the pending queue of pair pk, whose last message
// is last (nil for a new queue). Callers must hold e.mu.
func (e *Engine) holdLocked(pk pairKey, last, q *quarantined) {
	if last != nil {
		q.held, last.held = last.held, q
	} else {
		q.held = q
	}
	q.pending = true
	e.pendingChallenge[pk] = q
}

// unholdLocked removes q from its pair's pending queue. The pair is
// recomputed from q's message: removal off the solve path (a digest
// action, expiry) is rare. Callers must hold e.mu.
func (e *Engine) unholdLocked(q *quarantined) {
	pk := makePairKey(q.msg.Rcpt, q.msg.EnvelopeFrom)
	last := e.pendingChallenge[pk]
	prev := last
	for prev.held != q {
		prev = prev.held
	}
	switch {
	case prev == q:
		delete(e.pendingChallenge, pk)
	case last == q:
		prev.held = q.held
		e.pendingChallenge[pk] = prev
	default:
		prev.held = q.held
	}
	q.held, q.pending = nil, false
}

// challengeOrQuarantine is the post-filter half of the gray path:
// quarantine the message and challenge its sender (subject to the
// null-sender, pending-pair and rate-cap rules).
func (e *Engine) challengeOrQuarantine(msg *mail.Message) {
	now := e.clk.Now()
	if msg.EnvelopeFrom.IsNull() {
		// A bounce: if it parses as a DSN for one of our own challenges,
		// close the feedback loop first — the fate of the challenge is
		// negative evidence about the (very possibly spoofed) original
		// sender.
		e.processDSN(msg)
	}
	q := &quarantined{msg: msg, queuedAt: now, body: e.keepBody(msg)}

	if msg.EnvelopeFrom.IsNull() {
		// Quarantine the bounce for the digest but never challenge it.
		e.mu.Lock()
		e.addQuarLocked(q)
		e.mu.Unlock()
		e.c.quarantineOnly.Add(1)
		return
	}

	if msg.AutoSubmitted != "" {
		// RFC 3834: the message is itself auto-generated — another CR
		// system's challenge, a vacation autoresponder. Challenging it
		// would start a challenge-challenge loop between two CR
		// deployments (our challenges carry the same header, so the
		// peer suppresses symmetrically). Quarantine only.
		e.mu.Lock()
		e.addQuarLocked(q)
		e.mu.Unlock()
		e.c.challengeLoopSuppressed.Add(1)
		if e.logging() {
			e.emit(maillog.KindLoopSuppressed, msg.ID,
				"from", msg.EnvelopeFrom.Key(), "auto", msg.AutoSubmitted)
		}
		return
	}

	pk := makePairKey(msg.Rcpt, msg.EnvelopeFrom)
	e.mu.Lock()
	if last := e.pendingChallenge[pk]; last != nil {
		// A challenge for this sender/mailbox pair is already out; hold
		// the message behind it instead of sending another challenge.
		e.holdLocked(pk, last, q)
		e.addQuarLocked(q)
		e.mu.Unlock()
		e.c.challengeSuppressed.Add(1)
		return
	}
	if e.cfg.MaxChallengesPerHour > 0 {
		now := e.clk.Now()
		if now.Sub(e.rateWindowStart) >= time.Hour {
			e.rateWindowStart = now
			e.rateWindowCount = 0
		}
		if e.rateWindowCount >= e.cfg.MaxChallengesPerHour {
			// Over the cap: hold the message without challenging. The
			// pending entry stays so a later message from the same pair
			// does not slip a challenge through either.
			e.holdLocked(pk, nil, q)
			e.addQuarLocked(q)
			e.mu.Unlock()
			e.c.challengeRateLimited.Add(1)
			return
		}
		e.rateWindowCount++
	}
	e.holdLocked(pk, nil, q)
	e.mu.Unlock()

	ch := e.captcha.Issue(msg.ID, msg.Rcpt, msg.EnvelopeFrom)
	e.mu.Lock()
	q.ch = ch
	e.addQuarLocked(q)
	e.mu.Unlock()
	e.c.challengesSent.Add(1)
	e.c.challengeBytes.Add(challengeSize)

	if e.logging() {
		e.emit(maillog.KindChallenge, msg.ID, "to", msg.EnvelopeFrom.Key())
	}
	e.recordRep(msg.EnvelopeFrom, msg.ClientIP, reputation.Challenged)
	if send := e.sendCh.Load(); send != nil {
		(*send)(OutboundChallenge{
			MsgID:    msg.ID,
			Token:    ch.Token,
			From:     e.cfg.ChallengeFrom,
			To:       msg.EnvelopeFrom,
			ClientIP: msg.ClientIP,
			Subject:  msg.Subject,
			URL:      e.captcha.URL(e.cfg.ChallengeBaseURL, ch.Token),
			Size:     challengeSize,
			Issued:   e.clk.Now(),
		})
	}
}

// keepBody makes msg's body outlive Receive: it puts the body in
// Config.Bodies and returns the reference, leaving on msg what the store
// did not take; without Config.Bodies it copies the body onto the heap.
func (e *Engine) keepBody(msg *mail.Message) bodystore.Ref {
	if e.cfg.Bodies == nil {
		msg.Body = strings.Clone(msg.Body)
		return bodystore.Ref{}
	}
	ref, kept := e.cfg.Bodies.Put(msg.Body)
	msg.Body = kept
	return ref
}

// freeBody releases a body keepBody kept.
func (e *Engine) freeBody(ref bodystore.Ref) {
	if ref != (bodystore.Ref{}) {
		e.cfg.Bodies.Free(ref)
	}
}

// processDSN closes the challenge feedback loop for one inbound
// null-sender message. If the message parses as a delivery status
// notification whose original message ID matches an outstanding
// challenged quarantine item, the originating gray message is marked
// bounced (visible through the bounce event and the ChallengeBounced
// counters) and — for the spoofed-sender bounce classes, no-user and
// no-domain — the sender takes a reputation penalty. A blocklisted
// bounce (5.7.1) is the *challenge sender's* standing with the remote
// MX, not evidence about the original sender, so it is counted but
// never penalised. DSNs matching no outstanding challenge count as
// orphaned. Reports whether the message was a parsable DSN.
func (e *Engine) processDSN(msg *mail.Message) bool {
	d, ok := mail.ParseDSN(msg)
	if !ok {
		return false
	}
	class := string(d.Class)

	var sender mail.Address
	correlated := false
	if d.OriginalMessageID != "" {
		e.mu.Lock()
		if q, ok := e.quarantine[d.OriginalMessageID]; ok && q.ch != nil {
			correlated = true
			sender = q.msg.EnvelopeFrom
		}
		e.mu.Unlock()
	}

	if correlated {
		e.c.challengeBounced.add(class, 1)
		if d.Class == mail.DSNNoUser || d.Class == mail.DSNNoDomain {
			e.recordRep(sender, "", reputation.Bounced)
		}
	} else {
		e.c.dsnOrphaned.Add(1)
	}

	if e.logging() {
		domain := sender.Domain
		if domain == "" {
			if i := strings.LastIndexByte(d.FinalRecipient, '@'); i >= 0 {
				domain = d.FinalRecipient[i+1:]
			}
		}
		id := d.OriginalMessageID
		if id == "" {
			id = msg.ID
		}
		// The fields are slices of the body, which the sink may keep
		// longer than the caller keeps the body.
		e.emit(maillog.KindBounce, strings.Clone(id),
			"class", class, "status", strings.Clone(d.Status), "domain", strings.Clone(domain))
	}
	return true
}

// deliver hands a message to the user's inbox: it is counted, logged
// and passed to the inbox sink, if one is installed, with body, the
// reference keepBody took when the message was quarantined. A white
// message was not: its body is kept here, once, and only for a sink.
func (e *Engine) deliver(msg *mail.Message, via DeliveryVia, body bodystore.Ref) {
	e.c.delivered[via].Add(1)
	e.emit(maillog.KindDeliver, msg.ID, "via", via.String())
	e.recordRep(msg.EnvelopeFrom, msg.ClientIP, reputation.Delivered)
	inbox := e.inbox.Load()
	if inbox == nil {
		e.freeBody(body)
		return
	}
	if via == ViaWhitelist {
		body = e.keepBody(msg)
	}
	now := e.clk.Now()
	queued := msg.Received
	if queued.IsZero() {
		queued = now
	}
	(*inbox)(Delivery{
		MsgID:       msg.ID,
		User:        msg.Rcpt,
		Sender:      msg.EnvelopeFrom,
		Via:         via,
		QueuedAt:    queued,
		DeliveredAt: now,
		Body:        body,
	}, msg)
}

// onChallengeSolved is the captcha service's solve callback: whitelist the
// sender for the recipient and release the quarantined message.
func (e *Engine) onChallengeSolved(ch *captcha.Challenge) {
	e.emit(maillog.KindWebSolve, ch.MsgID, "token", ch.Token, "attempts", itoa(int(ch.Attempts)))
	e.wl.AddWhite(ch.Recipient, ch.Sender, whitelist.SourceChallenge)
	e.recordRep(ch.Sender, "", reputation.Solved)

	pk := makePairKey(ch.Recipient, ch.Sender)
	e.mu.Lock()
	var release []*quarantined
	if last := e.pendingChallenge[pk]; last != nil {
		// Release the pair's whole queue, first to last. A message whose
		// challenge is still being issued is not quarantined yet: it is
		// unheld, not released.
		delete(e.pendingChallenge, pk)
		for q, done := last.held, false; !done; {
			next := q.held
			done = q == last
			q.held, q.pending = nil, false
			if e.quarantine[q.msg.ID] == q {
				release = append(release, q)
				e.delQuarLocked(q)
			}
			q = next
		}
	}
	// The solved message is released even when no longer held: a solve
	// of its pair may have unheld it while its challenge was issued.
	if q, ok := e.quarantine[ch.MsgID]; ok {
		release = append(release, q)
		e.delQuarLocked(q)
	}
	e.mu.Unlock()
	for _, q := range release {
		e.deliver(q.msg, ViaChallenge, q.body)
		e.captcha.Drop(q.ch)
	}
}

// AuthorizeFromDigest implements the digest "authorize" action: the user
// whitelists the sender and the quarantined message is delivered.
func (e *Engine) AuthorizeFromDigest(user mail.Address, msgID string) error {
	e.mu.Lock()
	q, ok := e.quarantine[msgID]
	if ok && !q.msg.Rcpt.KeyEquals(user) {
		ok = false
	}
	if ok {
		e.delQuarLocked(q)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no quarantined message %s for %s", msgID, user)
	}
	if !q.msg.EnvelopeFrom.IsNull() {
		e.wl.AddWhite(user, q.msg.EnvelopeFrom, whitelist.SourceDigest)
	}
	e.deliver(q.msg, ViaDigest, q.body)
	e.captcha.Drop(q.ch)
	return nil
}

// DeleteFromDigest implements the digest "delete" action.
func (e *Engine) DeleteFromDigest(user mail.Address, msgID string) error {
	e.mu.Lock()
	q, ok := e.quarantine[msgID]
	if ok && !q.msg.Rcpt.KeyEquals(user) {
		ok = false
	}
	if ok {
		e.delQuarLocked(q)
		e.c.digestDeleted.Add(1)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no quarantined message %s for %s", msgID, user)
	}
	e.freeBody(q.body)
	e.captcha.Drop(q.ch)
	return nil
}

// UserSentMail records an outbound message from a protected user, which
// implicitly whitelists the destination (§2, fourth mechanism).
func (e *Engine) UserSentMail(user, to mail.Address) {
	e.wl.AddWhite(user, to, whitelist.SourceOutbound)
}

// AddManualWhitelist implements the manual import mechanism.
func (e *Engine) AddManualWhitelist(user, sender mail.Address) {
	e.wl.AddWhite(user, sender, whitelist.SourceManual)
}

// ExpireQuarantine drops messages older than the quarantine TTL and
// returns how many were dropped. Run it from a daily sweep.
func (e *Engine) ExpireQuarantine() int {
	now := e.clk.Now()
	var expired []*quarantined
	e.mu.Lock()
	for _, q := range e.quarantine {
		if now.Sub(q.queuedAt) > e.cfg.QuarantineTTL {
			expired = append(expired, q)
			e.delQuarLocked(q)
		}
	}
	e.mu.Unlock()
	e.c.quarantineExpired.Add(int64(len(expired)))
	for _, q := range expired {
		e.freeBody(q.body)
		e.captcha.Drop(q.ch)
	}
	return len(expired)
}

// PendingForUser returns the digest items for user's quarantined mail,
// oldest first (ties broken by message ID so output is deterministic).
func (e *Engine) PendingForUser(user mail.Address) []digest.Item {
	rk := user.Canonical()
	e.mu.Lock()
	var out []digest.Item
	if l := e.byRcpt[rk]; l != nil {
		out = make([]digest.Item, 0, l.n)
		for q := l.head; q != nil; q = q.next {
			out = append(out, digest.Item{
				MsgID:   q.msg.ID,
				Sender:  q.msg.EnvelopeFrom,
				Subject: q.msg.Subject,
				Queued:  q.queuedAt,
			})
		}
	}
	e.mu.Unlock()
	slices.SortFunc(out, func(a, b digest.Item) int {
		if !a.Queued.Equal(b.Queued) {
			return a.Queued.Compare(b.Queued)
		}
		return strings.Compare(a.MsgID, b.MsgID)
	})
	return out
}

// PendingCount returns how many quarantined messages await user, the
// size of their digest, without building it.
func (e *Engine) PendingCount(user mail.Address) int {
	rk := user.Canonical()
	e.mu.Lock()
	defer e.mu.Unlock()
	if l := e.byRcpt[rk]; l != nil {
		return l.n
	}
	return 0
}

// Quarantined reports whether the message msgID sits in the quarantine.
// The quarantine is the only place the engine keeps a *mail.Message
// after Receive returns: from the moment the gray path quarantines it
// until a solve, a digest authorize or delete, or expiry releases it.
// A caller that owns an accepted message the engine did not quarantine,
// and whose inbox sink (SetInboxSink) kept no pointer to it, may
// therefore reuse it.
func (e *Engine) Quarantined(msgID string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.quarantine[msgID]
	return ok
}

// QuarantineLen returns the number of quarantined messages.
func (e *Engine) QuarantineLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.quarantine)
}

// Metrics returns a deep-copied snapshot of the engine counters, merged
// with the filter chain's per-filter drop counts. The maps are built
// fresh from the underlying atomics on every call, so the snapshot is
// the caller's alone — mutating it cannot race with the engine, the
// same guarantee the old single-mutex deep copy gave.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		MTAIncoming: e.c.mtaIncoming.Load(),
		MTAInBytes:  e.c.mtaInBytes.Load(),
		MTADropped:  make(map[MTAReason]int64),

		SpoolWhite:    e.c.spoolWhite.Load(),
		SpoolBlack:    e.c.spoolBlack.Load(),
		SpoolGray:     e.c.spoolGray.Load(),
		DispatchBytes: e.c.dispatchBytes.Load(),

		FilterDropped:           e.c.filterDropped.snapshot(),
		ChallengesSent:          e.c.challengesSent.Load(),
		ChallengeBytes:          e.c.challengeBytes.Load(),
		QuarantineOnly:          e.c.quarantineOnly.Load(),
		ChallengeSuppressed:     e.c.challengeSuppressed.Load(),
		ChallengeRateLimited:    e.c.challengeRateLimited.Load(),
		ChallengeLoopSuppressed: e.c.challengeLoopSuppressed.Load(),
		ChallengeBounced:        e.c.challengeBounced.snapshot(),
		DSNOrphaned:             e.c.dsnOrphaned.Load(),
		FilterDegraded:          e.c.filterDegraded.snapshot(),
		MTADegradedAccept:       e.c.mtaDegradedAccept.Load(),
		MTADegradedDrop:         e.c.mtaDegradedDrop.Load(),

		ReputationFastPath: e.c.reputationFastPath.Load(),
		ReputationSuspect:  e.c.reputationSuspect.Load(),

		Delivered:         make(map[DeliveryVia]int64),
		QuarantineExpired: e.c.quarantineExpired.Load(),
		DigestDeleted:     e.c.digestDeleted.Load(),
	}
	for r := range e.c.mtaDropped {
		if n := e.c.mtaDropped[r].Load(); n != 0 {
			m.MTADropped[MTAReason(r)] = n
		}
	}
	for v := range e.c.delivered {
		if n := e.c.delivered[v].Load(); n != 0 {
			m.Delivered[DeliveryVia(v)] = n
		}
	}
	return m
}

// ReflectionRatio returns R at the CR filter: challenges sent over
// messages reaching the dispatcher (§3.1; the study measured 19.3%).
func (m Metrics) ReflectionRatio() float64 {
	reaching := m.SpoolWhite + m.SpoolBlack + m.SpoolGray
	if reaching == 0 {
		return 0
	}
	return float64(m.ChallengesSent) / float64(reaching)
}

// ReflectionRatioMTA returns R at the MTA-IN: challenges over all
// incoming messages (the study measured 4.8%).
func (m Metrics) ReflectionRatioMTA() float64 {
	if m.MTAIncoming == 0 {
		return 0
	}
	return float64(m.ChallengesSent) / float64(m.MTAIncoming)
}

// ReflectedTrafficRatio returns RT at the CR filter: challenge bytes out
// over message bytes in (§3.3; the study measured 2.5%).
func (m Metrics) ReflectedTrafficRatio() float64 {
	if m.DispatchBytes == 0 {
		return 0
	}
	return float64(m.ChallengeBytes) / float64(m.DispatchBytes)
}

// TotalMTADropped sums the MTA-IN drops.
func (m Metrics) TotalMTADropped() int64 {
	var n int64
	for _, v := range m.MTADropped {
		n += v
	}
	return n
}

// TotalFilterDropped sums the gray-spool filter drops.
func (m Metrics) TotalFilterDropped() int64 {
	var n int64
	for _, v := range m.FilterDropped {
		n += v
	}
	return n
}

// TotalFilterDegraded sums degraded (fail-open/fail-closed) filter decisions.
func (m Metrics) TotalFilterDegraded() int64 {
	var n int64
	for _, v := range m.FilterDegraded {
		n += v
	}
	return n
}
