package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
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
type ChallengeStatus int

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
type ChallengeRecord struct {
	Challenge core.OutboundChallenge
	Company   string
	FromIP    string
	Status    ChallengeStatus
	Attempts  int // delivery attempts
	Delivered time.Time
	Visited   bool
	Solved    bool
	SolvedAt  time.Time
	// CaptchaAttempts is the number of answer submissions used on a
	// successful solve (1 = first try).
	CaptchaAttempts int
	TrapHit         bool
	Persona         Persona // meaningful when delivered to an existing mailbox
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

	// lane is the company's private execution context when the fleet
	// drives companies in parallel (AttachCompanyLane); nil for
	// companies attached with AttachCompany, which share the network's
	// global clock/scheduler/RNG.
	lane *lane
}

// lane holds the per-company clock, scheduler, RNG stream and ID source
// used under epoch-barrier parallel execution, plus the buffer of trap
// hits deferred to the next barrier. A lane is only ever touched by the
// one worker advancing its company within an epoch (and by the barrier
// flush, which the epoch's worker join sequences after), so it needs no
// locking of its own.
type lane struct {
	clk      *clock.Sim
	sched    *clock.Scheduler
	rng      *rand.Rand
	ids      *mail.IDSource
	trapHits []trapHit
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
	// Seed drives all persona randomness.
	Seed int64
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
	// Injector is an optional fault source. Target "outbound-dsn"
	// garbles the machine-readable block of an emitted DSN, modelling a
	// reporting MTA whose bounce format the parser cannot read.
	Injector faults.Injector
}

// Network is the simulated Internet: remote servers, blocklist
// providers, spamtraps, and the delivery agent. Events run on the
// caller's scheduler (virtual time).
type Network struct {
	clk       *clock.Sim
	sched     *clock.Scheduler
	dns       *dnssim.Server
	providers []*rbl.Provider
	traps     *rbl.TrapRegistry
	cfg       Config

	mu        sync.Mutex
	rng       *rand.Rand
	remotes   map[string]*RemoteServer
	companies map[string]*Company
	// sorted is the companies in name order, rebuilt on attach
	// (copy-on-write): barrier-time iteration grabs the slice under mu
	// and walks it lock-free instead of re-sorting per barrier.
	sorted []*Company
	// records are kept per company: appends for one company only ever
	// come from that company's lane (or the single driver thread), so
	// each slice has a deterministic order regardless of worker count.
	records  map[string][]*ChallengeRecord
	userMail map[UserMailOutcome]int64
	// resolvable optionally overrides dns.Resolvable on the delivery
	// path, letting the fleet route the per-attempt domain probe through
	// its resolver cache.
	resolvable func(domain string) bool
}

// New assembles a Network.
func New(clk *clock.Sim, sched *clock.Scheduler, dns *dnssim.Server, providers []*rbl.Provider, traps *rbl.TrapRegistry, cfg Config) *Network {
	if cfg.TransitDelay <= 0 {
		cfg.TransitDelay = 30 * time.Second
	}
	return &Network{
		clk:       clk,
		sched:     sched,
		dns:       dns,
		providers: providers,
		traps:     traps,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		remotes:   make(map[string]*RemoteServer),
		companies: make(map[string]*Company),
		records:   make(map[string][]*ChallengeRecord),
		userMail:  make(map[UserMailOutcome]int64),
	}
}

// SetResolvable overrides the domain-resolvability probe used on the
// challenge delivery path (default: the DNS server's Resolvable). The
// fleet points it at its dnscache layer.
func (n *Network) SetResolvable(f func(domain string) bool) {
	n.mu.Lock()
	n.resolvable = f
	n.mu.Unlock()
}

func (n *Network) domainResolvable(domain string) bool {
	n.mu.Lock()
	f := n.resolvable
	n.mu.Unlock()
	if f != nil {
		return f(domain)
	}
	return n.dns.Resolvable(domain)
}

// DNS returns the network's DNS server.
func (n *Network) DNS() *dnssim.Server { return n.dns }

// Traps returns the spamtrap registry.
func (n *Network) Traps() *rbl.TrapRegistry { return n.traps }

// Providers returns the blocklist providers.
func (n *Network) Providers() []*rbl.Provider { return n.providers }

// AddRemote registers a remote mail server and its DNS records. An
// unreachable server still has DNS records (the spammer's spoofed domain
// resolves; its mail server just never answers).
func (n *Network) AddRemote(r *RemoteServer) {
	n.mu.Lock()
	n.remotes[r.Domain] = r
	n.mu.Unlock()
	n.dns.RegisterMailDomain(r.Domain, r.IP)
}

// Remote returns the server for domain, or nil.
func (n *Network) Remote(domain string) *RemoteServer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.remotes[domain]
}

// AttachCompany wires a company's engine to the network: its challenges
// are delivered through the simulated Internet from its ChallengeIP.
func (n *Network) AttachCompany(c *Company) {
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

// AttachCompanyLane is AttachCompany for epoch-barrier parallel
// execution: the company's network events (challenge transit, retries,
// recipient reactions, DSNs) run on its own clock and scheduler, and all
// persona randomness comes from a private RNG stream seeded with seed —
// so the company's trajectory is identical regardless of how many other
// companies run beside it. Spamtrap hits are the one cross-company side
// effect; they are buffered on the lane and applied by FlushTrapHits at
// the epoch barrier.
func (n *Network) AttachCompanyLane(c *Company, clk *clock.Sim, sched *clock.Scheduler, seed int64) {
	c.lane = &lane{
		clk:   clk,
		sched: sched,
		rng:   rand.New(rand.NewSource(seed)),
		ids:   mail.NewIDSource("dsn-" + c.Name),
	}
	n.AttachCompany(c)
}

// laneCtx returns the clock and scheduler events for c must run on.
func (n *Network) laneCtx(c *Company) (*clock.Sim, *clock.Scheduler) {
	if c.lane != nil {
		return c.lane.clk, c.lane.sched
	}
	return n.clk, n.sched
}

// FlushTrapHits applies the spamtrap hits buffered by every lane since
// the last flush, in company-name-sorted order. The fleet calls it at
// fired epoch barriers, after all lanes have reached the barrier and
// before any lane resumes, so blocklist providers see an update order —
// and therefore produce listing decisions — independent of worker count.
// When onIP is non-nil it is called once per applied hit with the source
// IP (the fleet feeds these to its RBL memo invalidation).
func (n *Network) FlushTrapHits(onIP func(ip string)) int {
	flushed := 0
	for _, c := range n.companiesSorted() {
		if c.lane == nil {
			continue
		}
		for _, h := range c.lane.trapHits {
			n.traps.Hit(h.to, h.ip)
			if onIP != nil {
				onIP(h.ip)
			}
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
		if c.lane != nil {
			staged += len(c.lane.trapHits)
		}
	}
	return staged
}

// Company returns the attached company by name, or nil.
func (n *Network) Company(name string) *Company {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.companies[name]
}

// companiesSorted returns the shared name-sorted slice (callers must
// not mutate it).
func (n *Network) companiesSorted() []*Company {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sorted
}

// Companies returns the attached companies sorted by name.
func (n *Network) Companies() []*Company {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Company, len(n.sorted))
	copy(out, n.sorted)
	return out
}

// SubmitChallenge queues a challenge for delivery after the transit
// delay. The delivery agent then walks the retry schedule.
func (n *Network) SubmitChallenge(c *Company, ch core.OutboundChallenge) {
	rec := &ChallengeRecord{
		Challenge: ch,
		Company:   c.Name,
		FromIP:    c.ChallengeIP,
		Status:    StatusPending,
	}
	n.mu.Lock()
	n.records[c.Name] = append(n.records[c.Name], rec)
	n.mu.Unlock()
	_, sched := n.laneCtx(c)
	sched.After(n.cfg.TransitDelay, func() { n.attemptDelivery(c, rec) })
}

// attemptDelivery tries to hand rec to the destination server once.
func (n *Network) attemptDelivery(c *Company, rec *ChallengeRecord) {
	rec.Attempts++
	to := rec.Challenge.To
	clk, _ := n.laneCtx(c)

	n.mu.Lock()
	remote := n.remotes[to.Domain]
	n.mu.Unlock()

	// No server for the domain (or no DNS): hard bounce. Without DSNs
	// the transport layer reports the bounce directly; with DSNs the
	// engine learns it by parsing the notification (counting it twice
	// would double the reputation penalty).
	if remote == nil || !n.domainResolvable(to.Domain) {
		rec.Status = StatusBouncedNoDomain
		if !n.cfg.EmitDSNs {
			c.Engine.RecordChallengeBounce(to)
		}
		n.emitDSN(c, rec, "", "5.1.2", "host not found")
		return
	}

	if remote.Unreachable || clk.Now().Before(remote.DownUntil) {
		n.retryOrExpire(c, rec)
		return
	}

	// Destination screens inbound mail against its blocklist: a listed
	// challenge-server IP gets a 5xx (permanent) rejection.
	if remote.Screen != nil && remote.Screen.IsListed(rec.FromIP) {
		rec.Status = StatusBouncedBlacklisted
		n.emitDSN(c, rec, remote.IP, "5.7.1", "550 connection refused: "+rec.FromIP+" listed on "+remote.Screen.Name())
		return
	}

	// Spamtraps accept everything (that is how they lure spam) and
	// report the sending IP to the blocklist providers. Under lane
	// execution the provider update is deferred to the epoch barrier so
	// listing state never depends on lane interleaving.
	if n.traps != nil && n.traps.IsTrap(to) {
		rec.Status = StatusDelivered
		rec.Delivered = clk.Now()
		rec.TrapHit = true
		if c.lane != nil {
			c.lane.trapHits = append(c.lane.trapHits, trapHit{to: to, ip: rec.FromIP})
		} else {
			n.traps.Hit(to, rec.FromIP)
		}
		return
	}

	persona, behavior, exists := remote.Lookup(to)
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
	rec.Delivered = clk.Now()
	rec.Persona = persona
	n.scheduleRecipientReaction(c, rec, behavior)
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
	clk, sched := n.laneCtx(c)
	id := mail.NewID("dsn")
	if c.lane != nil {
		id = c.lane.ids.Next()
	}
	body := mail.FormatDSNBody(rec.Challenge.To.String(), status, reason, rec.Challenge.MsgID)
	if n.cfg.Injector != nil {
		if d := n.cfg.Injector.Decide("outbound-dsn", 0); d.Err != nil {
			// A garbling reporting MTA: the machine-readable block is
			// destroyed, so the engine sees an uncorrelatable bounce
			// and must degrade gracefully, never crash.
			body = "\xff\xfe<<" + reason + ">> =?garbage?= \x00"
		}
	}
	dsn := &mail.Message{
		ID:           id,
		EnvelopeFrom: mail.Null,
		Rcpt:         rec.Challenge.From,
		Subject:      "Undelivered Mail Returned to Sender",
		Body:         body,
		Size:         1200 + len(reason),
		ClientIP:     srcIP,
		Received:     clk.Now(),
	}
	sched.After(n.cfg.TransitDelay, func() { c.Engine.Receive(dsn) })
}

func (n *Network) retryOrExpire(c *Company, rec *ChallengeRecord) {
	idx := rec.Attempts - 1
	if idx >= len(resilience.MTARetrySchedule) {
		rec.Status = StatusExpired
		n.emitDSN(c, rec, "", "4.4.7", "delivery time expired")
		return
	}
	_, sched := n.laneCtx(c)
	sched.After(resilience.MTARetrySchedule[idx], func() { n.attemptDelivery(c, rec) })
}

// scheduleRecipientReaction decides, per the mailbox behavior profile,
// whether the challenge URL gets visited and solved, and schedules those
// actions in virtual time.
func (n *Network) scheduleRecipientReaction(c *Company, rec *ChallengeRecord, b Behavior) {
	var visit, solve bool
	var delay time.Duration
	attempts := 1
	draw := func(rng *rand.Rand) {
		visit = rng.Float64() < b.VisitProb
		solve = visit && rng.Float64() < b.SolveProbGivenVisit
		if b.Delay != nil {
			delay = b.Delay(rng)
		}
		if len(b.AttemptsDist) > 0 {
			attempts = sampleAttempts(rng, b.AttemptsDist)
		}
	}
	if c.lane != nil {
		// Lane RNG: single-threaded within the lane, no lock needed.
		draw(c.lane.rng)
	} else {
		n.mu.Lock()
		draw(n.rng)
		n.mu.Unlock()
	}

	if !visit {
		return
	}
	clk, sched := n.laneCtx(c)
	sched.After(delay, func() {
		svc := c.Engine.Captcha()
		if _, err := svc.Visit(rec.Challenge.Token); err != nil {
			return // expired or already resolved via digest
		}
		rec.Visited = true
		if !solve {
			return
		}
		// Fumble attempts-1 times, then submit the right answer. Each
		// wrong try is a real Solve call so the service's attempt
		// counters match Figure 4(b).
		for i := 0; i < attempts-1; i++ {
			_ = svc.Solve(rec.Challenge.Token, "wrong-answer")
		}
		ans, err := svc.Answer(rec.Challenge.Token)
		if err != nil {
			return
		}
		if err := svc.Solve(rec.Challenge.Token, ans); err != nil {
			return
		}
		rec.Solved = true
		rec.SolvedAt = clk.Now()
		rec.CaptchaAttempts = attempts
	})
}

// SendUserMail models one ordinary outbound message from a company user
// through the company's MailIP, returning its fate. This is the §5.1
// collateral-damage channel: if challenge backscatter got the shared IP
// blacklisted, user mail bounces too.
func (n *Network) SendUserMail(c *Company, to mail.Address) UserMailOutcome {
	n.mu.Lock()
	remote := n.remotes[to.Domain]
	n.mu.Unlock()

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
	n.mu.Lock()
	n.userMail[outcome]++
	n.mu.Unlock()
	return outcome
}

// UserMailStats returns the outbound user-mail outcome counters.
func (n *Network) UserMailStats() map[UserMailOutcome]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[UserMailOutcome]int64, len(n.userMail))
	for k, v := range n.userMail {
		out[k] = v
	}
	return out
}

// Records returns a snapshot of all challenge records, grouped by
// company in name order (submission order within each company).
func (n *Network) Records() []*ChallengeRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.records))
	total := 0
	for name, recs := range n.records {
		names = append(names, name)
		total += len(recs)
	}
	sort.Strings(names)
	out := make([]*ChallengeRecord, 0, total)
	for _, name := range names {
		out = append(out, n.records[name]...)
	}
	return out
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
	for _, recs := range n.records {
		for _, r := range recs {
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
	for _, recs := range n.records {
		for _, r := range recs {
			if r.Solved && r.CaptchaAttempts > 0 {
				out[r.CaptchaAttempts]++
			}
		}
	}
	return out
}
