// Package simnet simulates the Internet surrounding the CR deployments:
// the remote mail servers that receive challenges (and bounce, blacklist
// or accept them), the humans and robots behind remote mailboxes (who
// ignore, visit or solve challenges), the spamtraps feeding blocklists,
// and the delivery agent with its retry/expiry schedule.
//
// This is the substitution for the paper's real six-month Internet
// exposure: every observable the study measured — challenge delivery
// status (Figure 4a), CAPTCHA attempts (4b), solve delays (7/8), server
// blacklisting (11) — is produced by these models rather than assumed.
package simnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mail"
	"repro/internal/rbl"
)

// Persona models who is behind a remote mailbox, which determines what
// happens when a challenge (mis)lands there.
type Persona int

// Personas.
const (
	// PersonaLegit is a real correspondent who actually sent the original
	// message: very likely to open and solve the challenge quickly.
	PersonaLegit Persona = iota
	// PersonaNewsletter is the operator of a marketing/newsletter sending
	// program: solves challenges with operator-dependent diligence (the
	// paper saw high-sender-similarity clusters with up to 97% solves).
	PersonaNewsletter
	// PersonaInnocent is a bystander whose address was spoofed by spam:
	// almost always ignores the misdirected challenge, very rarely solves
	// it (the paper's ~1-in-10,000 spurious spam delivery, §4.1).
	PersonaInnocent
	// PersonaRobot is an automated sender (notification system, receipt
	// mailer): its mailbox exists but nothing ever reads challenges.
	PersonaRobot
)

// String returns the persona label.
func (p Persona) String() string {
	switch p {
	case PersonaLegit:
		return "legit"
	case PersonaNewsletter:
		return "newsletter"
	case PersonaInnocent:
		return "innocent"
	case PersonaRobot:
		return "robot"
	default:
		return "unknown"
	}
}

// Behavior is the challenge-handling profile of a persona: whether the
// challenge URL gets opened, whether the CAPTCHA gets solved, after how
// long, and in how many attempts.
type Behavior struct {
	// VisitProb is the probability the challenge URL is ever opened.
	VisitProb float64
	// SolveProbGivenVisit is the probability a visit leads to a solve.
	SolveProbGivenVisit float64
	// Delay samples the time between challenge delivery and the visit.
	Delay func(rng *rand.Rand) time.Duration
	// AttemptsDist is the distribution of total attempts used on a solve
	// (index i = probability of i+1 attempts). The paper observed at most
	// five attempts, ever.
	AttemptsDist []float64
}

// solveDelayCDF samples the legit-sender reaction-time distribution
// calibrated to Figure 7: ~30% within 5 minutes, ~50% within 30 minutes,
// most of the rest within 4 hours, stragglers up to 3 days.
func solveDelayCDF(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	switch {
	case u < 0.42:
		return time.Duration(rng.Int63n(int64(5 * time.Minute)))
	case u < 0.68:
		return 5*time.Minute + time.Duration(rng.Int63n(int64(25*time.Minute)))
	case u < 0.90:
		return 30*time.Minute + time.Duration(rng.Int63n(int64(210*time.Minute)))
	case u < 0.97:
		return 4*time.Hour + time.Duration(rng.Int63n(int64(20*time.Hour)))
	default:
		return 24*time.Hour + time.Duration(rng.Int63n(int64(48*time.Hour)))
	}
}

// operatorDelayCDF samples newsletter-operator reaction times: these are
// humans working through a queue, typically within a business day.
func operatorDelayCDF(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	switch {
	case u < 0.4:
		return time.Duration(rng.Int63n(int64(2 * time.Hour)))
	case u < 0.9:
		return 2*time.Hour + time.Duration(rng.Int63n(int64(22*time.Hour)))
	default:
		return 24*time.Hour + time.Duration(rng.Int63n(int64(48*time.Hour)))
	}
}

// defaultAttempts is calibrated to Figure 4(b): the large majority of
// solves succeed on the first try and none ever needed more than five.
var defaultAttempts = []float64{0.76, 0.15, 0.06, 0.02, 0.01}

// DefaultBehavior returns the stock behavior profile for a persona.
func DefaultBehavior(p Persona) Behavior {
	switch p {
	case PersonaLegit:
		return Behavior{
			VisitProb:           0.88,
			SolveProbGivenVisit: 0.95,
			Delay:               solveDelayCDF,
			AttemptsDist:        defaultAttempts,
		}
	case PersonaNewsletter:
		return Behavior{
			VisitProb:           0.75,
			SolveProbGivenVisit: 0.90,
			Delay:               operatorDelayCDF,
			AttemptsDist:        defaultAttempts,
		}
	case PersonaInnocent:
		return Behavior{
			// Misdirected challenges are overwhelmingly ignored; the tiny
			// solve tail is the §4.1 spurious-delivery channel.
			VisitProb:           0.010,
			SolveProbGivenVisit: 0.08,
			Delay:               operatorDelayCDF,
			AttemptsDist:        defaultAttempts,
		}
	case PersonaRobot:
		return Behavior{VisitProb: 0, SolveProbGivenVisit: 0, Delay: solveDelayCDF, AttemptsDist: defaultAttempts}
	default:
		return Behavior{Delay: solveDelayCDF, AttemptsDist: defaultAttempts}
	}
}

// sampleAttempts draws a total attempt count from dist (1-based).
func sampleAttempts(rng *rand.Rand, dist []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if u < acc {
			return i + 1
		}
	}
	return len(dist)
}

// RemoteServer models one external mail domain: which mailboxes exist,
// who is behind them, whether inbound mail is screened against
// blocklists, and whether the server is reachable at all.
type RemoteServer struct {
	// Domain is the mail domain this server is authoritative for.
	Domain string
	// IP is the server's address (registered in DNS by the network).
	IP string
	// Screen, when non-nil, is the blocklist this server consults for
	// inbound mail: connections from IPs listed there are rejected with
	// a 5xx — the mechanism that turns a blacklisted challenge-server IP
	// into bounced challenges (§5.1). Real MTAs subscribe to one or two
	// lists, not all of them.
	Screen *rbl.Provider
	// Unreachable, when true, makes every delivery attempt fail
	// transiently; challenges to it eventually expire (Figure 4a's
	// "expired" slice). Spammers routinely spoof such domains.
	Unreachable bool

	// mailboxes is keyed by canonical address (local part lower-cased),
	// so a lookup builds no string. Until Freeze, lookups take the read
	// lock and additions the write lock; after it the table is read-only
	// and lookups take no lock.
	mu        sync.RWMutex
	frozen    atomic.Bool
	mailboxes map[mail.Address]mailbox
}

// mailbox is one existing remote mailbox: who is behind it and how they
// handle a challenge.
type mailbox struct {
	persona  Persona
	behavior Behavior
}

// NewRemoteServer returns an empty remote mail server for domain.
func NewRemoteServer(domain, ip string) *RemoteServer {
	return &RemoteServer{
		Domain:    domain,
		IP:        ip,
		mailboxes: make(map[mail.Address]mailbox),
	}
}

// AddMailbox registers a mailbox with the stock behavior of p.
func (r *RemoteServer) AddMailbox(local string, p Persona) {
	r.AddMailboxBehavior(local, p, DefaultBehavior(p))
}

// AddMailboxBehavior registers a mailbox with a custom behavior profile.
// It panics once the server is frozen (Network.Freeze).
func (r *RemoteServer) AddMailboxBehavior(local string, p Persona, b Behavior) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen.Load() {
		panic("simnet: AddMailbox on a frozen remote server " + r.Domain)
	}
	r.mailboxes[mail.Address{Local: local, Domain: r.Domain}.Canonical()] = mailbox{p, b}
}

// freeze makes the mailbox table read-only.
func (r *RemoteServer) freeze() {
	r.mu.Lock()
	r.frozen.Store(true)
	r.mu.Unlock()
}

// Lookup returns the persona and behavior for addr, and whether the
// mailbox exists.
func (r *RemoteServer) Lookup(addr mail.Address) (Persona, Behavior, bool) {
	if !r.frozen.Load() {
		r.mu.RLock()
		defer r.mu.RUnlock()
	}
	mb, ok := r.mailboxes[addr.Canonical()]
	return mb.persona, mb.behavior, ok
}
