package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/mail"
	"repro/internal/rbl"
	"repro/internal/resilience"
)

// ChallengeStatus is the final delivery status of one challenge email,
// the classification behind Figure 4(a).
type ChallengeStatus uint8

// Challenge delivery outcomes.
const (
	// StatusPending: still being attempted.
	StatusPending ChallengeStatus = iota
	// StatusDelivered: accepted by the destination server.
	StatusDelivered
	// StatusBouncedNoUser: rejected because the recipient does not exist
	// (71.7% of the study's bounces — the spoofed-sender signature).
	StatusBouncedNoUser
	// StatusBouncedNoDomain: the recipient domain has no mail server.
	StatusBouncedNoDomain
	// StatusBouncedBlacklisted: rejected because the challenge server's
	// IP is on a blocklist the destination consults (§5.1).
	StatusBouncedBlacklisted
	// StatusExpired: all delivery attempts failed transiently and the
	// message aged out of the outbound queue.
	StatusExpired
)

// String returns the status label.
func (s ChallengeStatus) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusDelivered:
		return "delivered"
	case StatusBouncedNoUser:
		return "bounced-no-user"
	case StatusBouncedNoDomain:
		return "bounced-no-domain"
	case StatusBouncedBlacklisted:
		return "bounced-blacklisted"
	case StatusExpired:
		return "expired"
	default:
		return fmt.Sprintf("ChallengeStatus(%d)", int(s))
	}
}

// Bounced reports whether the status is any bounce variant.
func (s ChallengeStatus) Bounced() bool {
	return s == StatusBouncedNoUser || s == StatusBouncedNoDomain || s == StatusBouncedBlacklisted
}

// ChallengeRecord tracks one challenge through delivery and solving.
// The network keeps one per challenge until the end of the run, so it
// holds only what a figure reads. Records are stored per company: the
// sending company, and with it the source IP and the challenge sender
// address, are not repeated in each.
type ChallengeRecord struct {
	MsgID string       // the challenged message
	To    mail.Address // the challenged (possibly spoofed) sender
	// Subject and ClientIP are the challenged message's, for the §4.1
	// campaign clustering and the Figure 12 SPF what-if.
	Subject  string
	ClientIP string
	// SolveDelay is the time from issue to a successful solve.
	SolveDelay time.Duration
	Status     ChallengeStatus
	Attempts   uint8 // delivery attempts
	// CaptchaAttempts is the number of answer submissions used on a
	// successful solve (1 = first try).
	CaptchaAttempts uint8
	Visited         bool
	Solved          bool
	TrapHit         bool
}

// Company is one CR installation attached to the network.
type Company struct {
	// Name identifies the company in reports.
	Name string
	// Engine is the company's CR engine.
	Engine *core.Engine
	// ChallengeIP is the MTA-OUT address used for challenges.
	ChallengeIP string
	// MailIP is the MTA-OUT address used for ordinary user mail. A third
	// of the study's installations used a second IP here to shield user
	// mail from challenge-induced blacklisting (§5.1).
	MailIP string

	// lane is the company's private execution context (AttachCompanyLane).
	lane *lane
	// records are the company's challenge records in submission order,
	// and userMail its outbound user-mail outcome counts. Both are
	// written on the company's lane and need no lock; readers take
	// Network.mu between runs.
	records  []*ChallengeRecord
	userMail [UserMailFailed + 1]int64
}

// lane holds the per-company clock, scheduler, RNG stream, ID source,
// resolver and fault injector, plus the buffer of trap hits deferred to
// the next barrier. A lane is only ever touched by the one worker
// advancing its company within an epoch (and by the barrier flush,
// which the epoch's worker join sequences after), so it needs no
// locking of its own.
type lane struct {
	clk      *clock.Sim
	sched    *clock.Scheduler
	rng      *rand.Rand
	ids      *mail.IDSource
	resolver dnssim.Resolver
	faults   *faults.Set
	trapHits []trapHit
}

// resolvable is the delivery path's per-attempt domain probe.
func (l *lane) resolvable(domain string) bool {
	ok, _ := l.resolver.ResolvableErr(domain)
	return ok
}

// trapHit is one deferred spamtrap delivery: the cross-company side
// effect (feeding every blocklist provider) is applied at the epoch
// barrier in company-name order so aggregate listing state is
// independent of worker count.
type trapHit struct {
	to mail.Address
	ip string
}

// SplitMTAOut reports whether challenges and user mail use distinct IPs.
func (c *Company) SplitMTAOut() bool { return c.ChallengeIP != c.MailIP }

// UserMailOutcome is the fate of an ordinary outbound user message, used
// by the split-MTA-OUT ablation.
type UserMailOutcome int

// Outbound user-mail outcomes.
const (
	// UserMailDelivered: accepted by the destination.
	UserMailDelivered UserMailOutcome = iota
	// UserMailBouncedBlacklisted: rejected because the sending IP is
	// blocklisted — collateral damage of challenge backscatter.
	UserMailBouncedBlacklisted
	// UserMailBouncedNoUser: no such recipient.
	UserMailBouncedNoUser
	// UserMailFailed: destination unreachable.
	UserMailFailed
)

// Config parameterises a Network.
type Config struct {
	// TransitDelay is the base SMTP transit time for a challenge.
	TransitDelay time.Duration
	// EmitDSNs, when true, turns every bounced or expired challenge into
	// a real delivery-status-notification message delivered back to the
	// originating company's MTA-IN (null envelope sender, per RFC 3464).
	// This closes the loop the paper's administrators saw in their logs:
	// a CR server's inbox fills with bounces of its own challenges. With
	// DSNs on, the engine learns bounce outcomes from the DSNs it parses
	// (processDSN) rather than from a direct transport-layer callback —
	// the two paths are never both active, so bounces count once.
	EmitDSNs bool
}

// Network is the simulated Internet: remote servers, spamtraps (which
// feed the blocklist providers), and the delivery agent. Each company's
// events run on the scheduler of the lane it was attached with (virtual
// time).
//
// Once Freeze is called the remote servers, their mailboxes and the
// trap set are read-only: a later mutation panics, and the delivery
// path reads them without a lock.
type Network struct {
	dns   *dnssim.Server
	traps *rbl.TrapRegistry
	cfg   Config

	mu        sync.Mutex
	frozen    atomic.Bool
	remotes   map[string]*RemoteServer
	companies map[string]*Company
	// sorted is the companies in name order, rebuilt on attach
	// (copy-on-write): barrier-time iteration grabs the slice under mu
	// and walks it lock-free instead of re-sorting per barrier.
	sorted []*Company
}

// New assembles a Network.
func New(dns *dnssim.Server, traps *rbl.TrapRegistry, cfg Config) *Network {
	if cfg.TransitDelay <= 0 {
		cfg.TransitDelay = 30 * time.Second
	}
	return &Network{
		dns:       dns,
		traps:     traps,
		cfg:       cfg,
		remotes:   make(map[string]*RemoteServer),
		companies: make(map[string]*Company),
	}
}

// AddRemote registers a remote mail server and its DNS records. An
// unreachable server still has DNS records (the spammer's spoofed domain
// resolves; its mail server just never answers). It panics after
// Freeze.
func (n *Network) AddRemote(r *RemoteServer) {
	n.mu.Lock()
	if n.frozen.Load() {
		n.mu.Unlock()
		panic("simnet: AddRemote on a frozen network")
	}
	n.remotes[r.Domain] = r
	n.mu.Unlock()
	n.dns.RegisterMailDomain(r.Domain, r.IP)
}

// Freeze makes the remote-server table, every registered server's
// mailboxes and the trap set read-only: AddRemote, AddMailbox and
// AddTrap panic from here on, and lookups take no lock. Call it once
// the world is built, before traffic flows; freezing twice is harmless.
// A server's Screen, Unreachable and DownUntil fields are not covered.
func (n *Network) Freeze() {
	n.mu.Lock()
	n.frozen.Store(true)
	for _, r := range n.remotes {
		r.freeze()
	}
	n.mu.Unlock()
	if n.traps != nil {
		n.traps.Freeze()
	}
}

// remote returns the server registered for domain, or nil.
func (n *Network) remote(domain string) *RemoteServer {
	if n.frozen.Load() {
		return n.remotes[domain]
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.remotes[domain]
}

// AttachCompanyLane wires a company's engine to the network: its
// challenges are delivered through the simulated Internet from its
// ChallengeIP. The company's network events (challenge transit,
// retries, recipient reactions, DSNs) run on clk and sched, all persona
// randomness comes from a private RNG stream seeded with seed, the
// delivery path's domain probe asks resolver, and set (nil for none)
// answers the "outbound-dsn" target — so the company's trajectory is
// identical regardless of how many other companies run beside it.
// Spamtrap hits are the one cross-company side effect; they are
// buffered on the lane and applied by FlushTrapHits at the epoch
// barrier.
func (n *Network) AttachCompanyLane(c *Company, clk *clock.Sim, sched *clock.Scheduler, seed int64, resolver dnssim.Resolver, set *faults.Set) {
	c.lane = &lane{
		clk:      clk,
		sched:    sched,
		rng:      rand.New(rand.NewSource(seed)),
		ids:      mail.NewIDSource("dsn-" + c.Name),
		resolver: resolver,
		faults:   set,
	}
	n.mu.Lock()
	n.companies[c.Name] = c
	sorted := make([]*Company, 0, len(n.companies))
	for _, cc := range n.companies {
		sorted = append(sorted, cc)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	n.sorted = sorted
	n.mu.Unlock()
	c.Engine.SetChallengeSender(func(ch core.OutboundChallenge) {
		n.SubmitChallenge(c, ch)
	})
}

// FlushTrapHits applies the spamtrap hits buffered by every lane since
// the last flush, in company-name-sorted order. The fleet calls it at
// fired epoch barriers, after all lanes have reached the barrier and
// before any lane resumes, so blocklist providers see an update order —
// and therefore produce listing decisions — independent of worker count.
func (n *Network) FlushTrapHits() int {
	flushed := 0
	for _, c := range n.companiesSorted() {
		for _, h := range c.lane.trapHits {
			n.traps.Hit(h.to, h.ip)
			flushed++
		}
		c.lane.trapHits = c.lane.trapHits[:0]
	}
	return flushed
}

// StagedTrapHits reports how many trap hits are buffered on lanes,
// waiting for the next FlushTrapHits. The fleet's sparse-barrier
// predicate consults it at every epoch rendezvous: a non-zero count
// means a cross-company effect is pending and the barrier must fire.
// Callers must have synchronized with the lanes (all parked), as the
// fleet's epoch rendezvous does.
func (n *Network) StagedTrapHits() int {
	staged := 0
	for _, c := range n.companiesSorted() {
		staged += len(c.lane.trapHits)
	}
	return staged
}

// companiesSorted returns the shared name-sorted slice (callers must
// not mutate it).
func (n *Network) companiesSorted() []*Company {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sorted
}

// SubmitChallenge queues a challenge for delivery after the transit
// delay. The delivery agent then walks the retry schedule. c must be
// attached to n: its record is kept on c, where Records finds it.
func (n *Network) SubmitChallenge(c *Company, ch core.OutboundChallenge) {
	rec := &ChallengeRecord{
		MsgID:    ch.MsgID,
		To:       ch.To,
		Subject:  ch.Subject,
		ClientIP: ch.ClientIP,
		Status:   StatusPending,
	}
	c.records = append(c.records, rec)
	d := &delivery{rec: rec, token: ch.Token, issued: ch.Issued}
	c.lane.sched.After(n.cfg.TransitDelay, func() { n.attemptDelivery(c, d) })
}

// delivery is a challenge in flight: its record plus what only the
// delivery agent and the recipient's reaction read. It lives as long as
// the scheduler holds an event for it.
type delivery struct {
	rec    *ChallengeRecord
	token  string
	issued time.Time
}

// attemptDelivery tries to hand the challenge to the destination server
// once.
func (n *Network) attemptDelivery(c *Company, d *delivery) {
	rec := d.rec
	rec.Attempts++
	to := rec.To
	remote := n.remote(to.Domain)

	// No server for the domain (or no DNS): hard bounce. Without DSNs
	// the transport layer reports the bounce directly; with DSNs the
	// engine learns it by parsing the notification (counting it twice
	// would double the reputation penalty).
	if remote == nil || !c.lane.resolvable(to.Domain) {
		rec.Status = StatusBouncedNoDomain
		if !n.cfg.EmitDSNs {
			c.Engine.RecordChallengeBounce(to)
		}
		n.emitDSN(c, rec, "", "5.1.2", "host not found")
		return
	}

	if remote.Unreachable || c.lane.clk.Now().Before(remote.DownUntil) {
		n.retryOrExpire(c, d)
		return
	}

	// Destination screens inbound mail against its blocklist: a listed
	// challenge-server IP gets a 5xx (permanent) rejection.
	if remote.Screen != nil && remote.Screen.IsListed(c.ChallengeIP) {
		rec.Status = StatusBouncedBlacklisted
		n.emitDSN(c, rec, remote.IP, "5.7.1", "550 connection refused: "+c.ChallengeIP+" listed on "+remote.Screen.Name())
		return
	}

	// Spamtraps accept everything (that is how they lure spam) and
	// report the sending IP to the blocklist providers. The provider
	// update is deferred to the epoch barrier so listing state never
	// depends on lane interleaving.
	if n.traps != nil && n.traps.IsTrap(to) {
		rec.Status = StatusDelivered
		rec.TrapHit = true
		c.lane.trapHits = append(c.lane.trapHits, trapHit{to: to, ip: c.ChallengeIP})
		return
	}

	_, behavior, exists := remote.Lookup(to)
	if !exists {
		rec.Status = StatusBouncedNoUser
		// The spoofed-sender signature: the reputation store learns that
		// challenges to this sender bounce. (Blacklisted rejections are
		// the challenge server's own standing, not the sender's, and are
		// not recorded.) With DSNs on, the engine's DSN feedback applies
		// the penalty instead.
		if !n.cfg.EmitDSNs {
			c.Engine.RecordChallengeBounce(to)
		}
		n.emitDSN(c, rec, remote.IP, "5.1.1", "550 no such user: "+to.String())
		return
	}

	rec.Status = StatusDelivered
	n.scheduleRecipientReaction(c, d, behavior)
}

// emitDSN synthesises the delivery-status notification a remote (or the
// local queue runner) sends when a challenge cannot be delivered, and
// feeds it back into the originating company's MTA-IN after a transit
// delay. DSNs use the null reverse-path, so the engine never challenges
// them (that would loop); they sit in the gray spool for the digest.
// The body carries an RFC 3464-style field block — enhanced status code
// plus the original message ID — so the engine's DSN parser can
// correlate the bounce back to the challenged gray message.
func (n *Network) emitDSN(c *Company, rec *ChallengeRecord, srcIP, status, reason string) {
	if !n.cfg.EmitDSNs {
		return
	}
	if srcIP == "" {
		// Local-queue DSNs (expiry, no-domain) originate from the
		// company's own MTA-OUT.
		srcIP = c.MailIP
	}
	body := mail.FormatDSNBody(rec.To.String(), status, reason, rec.MsgID)
	if c.lane.faults.Decide("outbound-dsn", 0).Err != nil {
		// A garbling reporting MTA: the machine-readable block is
		// destroyed, so the engine sees an uncorrelatable bounce and
		// must degrade gracefully, never crash.
		body = "\xff\xfe<<" + reason + ">> =?garbage?= \x00"
	}
	dsn := &mail.Message{
		ID:           c.lane.ids.Next(),
		EnvelopeFrom: mail.Null,
		Rcpt:         c.Engine.Config().ChallengeFrom,
		Subject:      "Undelivered Mail Returned to Sender",
		Body:         body,
		Size:         1200 + len(reason),
		ClientIP:     srcIP,
		Received:     c.lane.clk.Now(),
	}
	c.lane.sched.After(n.cfg.TransitDelay, func() { c.Engine.Receive(dsn) })
}

func (n *Network) retryOrExpire(c *Company, d *delivery) {
	idx := int(d.rec.Attempts) - 1
	if idx >= len(resilience.MTARetrySchedule) {
		d.rec.Status = StatusExpired
		n.emitDSN(c, d.rec, "", "4.4.7", "delivery time expired")
		return
	}
	c.lane.sched.After(resilience.MTARetrySchedule[idx], func() { n.attemptDelivery(c, d) })
}

// scheduleRecipientReaction decides, per the mailbox behavior profile,
// whether the challenge URL gets visited and solved, and schedules those
// actions in virtual time.
func (n *Network) scheduleRecipientReaction(c *Company, d *delivery, b Behavior) {
	rng := c.lane.rng
	visit := rng.Float64() < b.VisitProb
	solve := visit && rng.Float64() < b.SolveProbGivenVisit
	var delay time.Duration
	if b.Delay != nil {
		delay = b.Delay(rng)
	}
	attempts := 1
	if len(b.AttemptsDist) > 0 {
		attempts = sampleAttempts(rng, b.AttemptsDist)
	}

	if !visit {
		return
	}
	clk := c.lane.clk
	c.lane.sched.After(delay, func() {
		svc := c.Engine.Captcha()
		if _, err := svc.Visit(d.token); err != nil {
			return // expired or already resolved via digest
		}
		rec := d.rec
		rec.Visited = true
		if !solve {
			return
		}
		// Fumble attempts-1 times, then submit the right answer. Each
		// wrong try is a real Solve call so the service's attempt
		// counters match Figure 4(b).
		for i := 0; i < attempts-1; i++ {
			_ = svc.Solve(d.token, "wrong-answer")
		}
		ans, err := svc.Answer(d.token)
		if err != nil {
			return
		}
		if err := svc.Solve(d.token, ans); err != nil {
			return
		}
		rec.Solved = true
		rec.SolveDelay = clk.Now().Sub(d.issued)
		rec.CaptchaAttempts = uint8(attempts)
	})
}

// SendUserMail models one ordinary outbound message from a company user
// through the company's MailIP, returning its fate. This is the §5.1
// collateral-damage channel: if challenge backscatter got the shared IP
// blacklisted, user mail bounces too. c must be attached to n: the
// outcome is counted on c, where UserMailStats finds it.
func (n *Network) SendUserMail(c *Company, to mail.Address) UserMailOutcome {
	remote := n.remote(to.Domain)

	outcome := UserMailDelivered
	switch {
	case remote == nil || remote.Unreachable:
		outcome = UserMailFailed
	case remote.Screen != nil && remote.Screen.IsListed(c.MailIP):
		outcome = UserMailBouncedBlacklisted
	default:
		if _, _, ok := remote.Lookup(to); !ok && !(n.traps != nil && n.traps.IsTrap(to)) {
			outcome = UserMailBouncedNoUser
		}
	}
	c.userMail[outcome]++
	return outcome
}

// UserMailStats returns the outbound user-mail outcome counters, summed
// over the companies; an outcome that never happened is absent.
func (n *Network) UserMailStats() map[UserMailOutcome]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[UserMailOutcome]int64)
	for _, c := range n.sorted {
		for o, v := range c.userMail {
			if v != 0 {
				out[UserMailOutcome(o)] += v
			}
		}
	}
	return out
}

// Records returns a snapshot of all challenge records, grouped by
// company in name order (submission order within each company).
func (n *Network) Records() []*ChallengeRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, c := range n.sorted {
		total += len(c.records)
	}
	out := make([]*ChallengeRecord, 0, total)
	for _, c := range n.sorted {
		out = append(out, c.records...)
	}
	return out
}

// CompanyRecords returns a snapshot of one company's challenge records
// in submission order.
func (n *Network) CompanyRecords(name string) []*ChallengeRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c := n.companies[name]; c != nil {
		return slices.Clone(c.records)
	}
	return nil
}

// DeliveryStats aggregates challenge records into the Figure 4(a)
// distribution plus the solve/visit bookkeeping of §3.2.
type DeliveryStats struct {
	Total        int
	ByStatus     map[ChallengeStatus]int
	TrapHits     int
	Solved       int
	VisitedOnly  int
	NeverVisited int // delivered (non-trap) but URL never opened
}

// DeliveryStats computes the aggregate over all records.
func (n *Network) DeliveryStats() DeliveryStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := DeliveryStats{ByStatus: make(map[ChallengeStatus]int)}
	for _, c := range n.sorted {
		for _, r := range c.records {
			st.Total++
			st.ByStatus[r.Status]++
			if r.TrapHit {
				st.TrapHits++
			}
			if r.Status == StatusDelivered && !r.TrapHit {
				switch {
				case r.Solved:
					st.Solved++
				case r.Visited:
					st.VisitedOnly++
				default:
					st.NeverVisited++
				}
			} else if r.Status == StatusDelivered && r.TrapHit {
				st.NeverVisited++
			}
		}
	}
	return st
}

// AttemptsHistogram returns, over solved challenges, how many CAPTCHA
// attempts each took (keys 1..5) — Figure 4(b). Solved challenges are
// removed from the captcha services on delivery, so the records are the
// surviving source of truth.
func (n *Network) AttemptsHistogram() map[int]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[int]int)
	for _, c := range n.sorted {
		for _, r := range c.records {
			if r.Solved && r.CaptchaAttempts > 0 {
				out[int(r.CaptchaAttempts)]++
			}
		}
	}
	return out
}
