package core

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/rbl"
	"repro/internal/reputation"
	"repro/internal/whitelist"
)

// dsnFor builds the null-sender bounce a remote MTA would return for a
// challenge whose original gray message had ID origID.
func (e *env) dsnFor(origID, finalRcpt, status, diag string) *mail.Message {
	body := mail.FormatDSNBody(finalRcpt, status, diag, origID)
	return &mail.Message{
		ID:           mail.NewID("dsn"),
		EnvelopeFrom: mail.Address{}, // null reverse-path
		Rcpt:         mail.MustParseAddress("bob@corp.example"),
		Subject:      "Undelivered Mail Returned to Sender",
		Size:         1200 + len(body),
		Body:         body,
		ClientIP:     "192.0.2.10",
		Received:     e.clk.Now(),
	}
}

// bounceEvents installs an event sink on e's engine that keeps its
// bounce events.
func (e *env) bounceEvents() *[]maillog.Event {
	var evs []maillog.Event
	e.eng.SetEventSink(func(ev maillog.Event) {
		if ev.Kind == maillog.KindBounce {
			evs = append(evs, ev)
		}
	})
	return &evs
}

func TestDSNFeedbackCorrelatesBounce(t *testing.T) {
	e := newEnv(t, false)
	bounces := e.bounceEvents()
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict = %v, want Accepted", r)
	}
	if len(e.sent) != 1 {
		t.Fatalf("challenges sent = %d", len(e.sent))
	}

	r := e.eng.Receive(e.dsnFor(m.ID, "alice@example.com", "5.1.1", "550 no such user"))
	if r != Accepted {
		t.Fatalf("DSN verdict = %v, want Accepted (quarantined, never challenged)", r)
	}
	if len(e.sent) != 1 {
		t.Fatal("engine challenged a null-sender bounce")
	}
	mt := e.eng.Metrics()
	if mt.ChallengeBounced["no-user"] != 1 || mt.DSNOrphaned != 0 {
		t.Fatalf("bounced = %v, orphaned = %d", mt.ChallengeBounced, mt.DSNOrphaned)
	}
	if evs := *bounces; len(evs) != 1 || evs[0].MsgID != m.ID || evs[0].Field("class") != "no-user" {
		t.Fatalf("bounce events = %+v", evs)
	}
}

func TestDSNOrphanedWhenUncorrelated(t *testing.T) {
	e := newEnv(t, false)
	bounces := e.bounceEvents()
	// A DSN for a message this engine never challenged (backscatter of
	// someone else's spam) is counted but never becomes evidence.
	if r := e.eng.Receive(e.dsnFor("msg-never-seen", "x@y.example", "5.1.1", "550 no")); r != Accepted {
		t.Fatalf("verdict = %v", r)
	}
	mt := e.eng.Metrics()
	if mt.DSNOrphaned != 1 || len(mt.ChallengeBounced) != 0 {
		t.Fatalf("orphaned = %d, bounced = %v", mt.DSNOrphaned, mt.ChallengeBounced)
	}
	// The DSN is still logged under its original ID; with no sender to
	// name, the event carries the final recipient's domain.
	if evs := *bounces; len(evs) != 1 || evs[0].MsgID != "msg-never-seen" || evs[0].Field("domain") != "y.example" {
		t.Fatalf("bounce events = %+v", evs)
	}
}

func TestDSNPenaltyOnlyForDeadRecipients(t *testing.T) {
	// no-user and no-domain bounces are negative evidence about the
	// (likely spoofed) sender; a 5.7.1 blocklisting is the challenge
	// server's own standing and must not damage the sender's score.
	e := newEnv(t, false)
	rep := reputation.NewStore(reputation.DefaultConfig(), e.clk)
	e.eng.SetReputation(rep)

	spoofed := e.goodMsg("spoofed@example.com", "bob@corp.example")
	listed := e.goodMsg("listed@example.com", "bob@corp.example")
	for _, m := range []*mail.Message{spoofed, listed} {
		if r := e.eng.Receive(m); r != Accepted {
			t.Fatalf("verdict = %v", r)
		}
	}
	e.eng.Receive(e.dsnFor(spoofed.ID, "spoofed@example.com", "5.1.1", "550 no such user"))
	e.eng.Receive(e.dsnFor(listed.ID, "listed@example.com", "5.7.1", "554 refused: sender blocklisted"))

	sSpoofed := rep.Score(mail.MustParseAddress("spoofed@example.com"), "").Score
	sListed := rep.Score(mail.MustParseAddress("listed@example.com"), "").Score
	if !(sSpoofed < sListed) {
		t.Fatalf("no-user score %.3f not below blocklisted score %.3f", sSpoofed, sListed)
	}
	mt := e.eng.Metrics()
	if mt.ChallengeBounced["no-user"] != 1 || mt.ChallengeBounced["blocklisted"] != 1 {
		t.Fatalf("bounced = %v", mt.ChallengeBounced)
	}
}

// crPeer is a second, independently-configured CR installation for the
// two-deployment loop test.
type crPeer struct {
	clk  *clock.Sim
	eng  *Engine
	sent []OutboundChallenge
}

func newPeer(t *testing.T, name, domain, user string) *crPeer {
	t.Helper()
	p := &crPeer{clk: clock.NewSim(t0)}
	dns := dnssim.NewServer()
	prov := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), p.clk)
	chain := filters.NewChain(
		filters.NewAntivirus(),
		filters.NewReverseDNS(dns),
		filters.NewRBL(prov),
	)
	cfg := Config{
		Name:             name,
		Domains:          []string{domain},
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.Address{Local: "challenge", Domain: domain},
		ChallengeBaseURL: "http://cr." + domain,
		Seed:             11,
	}
	p.eng = New(cfg, p.clk, dns, chain, whitelist.NewStore(p.clk), nil)
	p.eng.AddUser(mail.Address{Local: user, Domain: domain})
	// Each site resolves the other's mail domain (and its own).
	dns.RegisterMailDomain("corp.example", "192.0.2.20")
	dns.RegisterMailDomain("other.example", "192.0.2.21")
	dns.RegisterMailDomain("botnet.example", "192.0.2.30")
	return p
}

// TestTwoCRDeploymentsDoNotLoop wires two CR engines' challenge senders
// into each other's inbound path, the configuration that loops forever
// without RFC 3834 suppression: A challenges a (spoofed) sender at B, B
// would challenge A's challenge sender back, A would challenge that...
// The Auto-Submitted header on every challenge keeps loop traffic at
// exactly zero beyond the first crossing.
func TestTwoCRDeploymentsDoNotLoop(t *testing.T) {
	a := newPeer(t, "site-a", "corp.example", "bob")
	b := newPeer(t, "site-b", "other.example", "carol")

	// deliver renders an outbound challenge as the mail message the
	// peer's MTA receives — Auto-Submitted and all, like outbound's
	// renderChallenge does on the wire.
	deliver := func(from *crPeer, to *crPeer, srcIP string) func(OutboundChallenge) {
		return func(ch OutboundChallenge) {
			from.sent = append(from.sent, ch)
			to.eng.Receive(&mail.Message{
				ID:            mail.NewID("ch"),
				EnvelopeFrom:  ch.From,
				Rcpt:          ch.To,
				Subject:       "Please confirm your message (" + ch.MsgID + ")",
				Size:          ch.Size,
				AutoSubmitted: "auto-replied",
				ClientIP:      srcIP,
				Received:      to.clk.Now(),
			})
		}
	}
	a.eng.SetChallengeSender(deliver(a, b, "192.0.2.20"))
	b.eng.SetChallengeSender(deliver(b, a, "192.0.2.21"))

	// Spam arrives at A spoofing a protected user of B. A challenges;
	// the challenge lands in B's gray path, where it must be quarantined
	// without a counter-challenge.
	spam := &mail.Message{
		ID:           mail.NewID("spam"),
		EnvelopeFrom: mail.MustParseAddress("carol@other.example"),
		Rcpt:         mail.MustParseAddress("bob@corp.example"),
		Subject:      "cheap pills and other fine products",
		Size:         4000,
		ClientIP:     "192.0.2.30",
		Received:     a.clk.Now(),
	}
	if r := a.eng.Receive(spam); r != Accepted {
		t.Fatalf("spam verdict at A = %v", r)
	}
	if len(a.sent) != 1 {
		t.Fatalf("A sent %d challenge(s), want 1", len(a.sent))
	}
	if len(b.sent) != 0 {
		t.Fatalf("loop: B answered A's challenge with %d challenge(s)", len(b.sent))
	}
	bm := b.eng.Metrics()
	if bm.ChallengeLoopSuppressed != 1 {
		t.Fatalf("B loop-suppressed = %d, want 1", bm.ChallengeLoopSuppressed)
	}
	if bm.ChallengesSent != 0 {
		t.Fatalf("B challenges sent = %d, want 0", bm.ChallengesSent)
	}
	// The suppressed challenge is still held for carol's digest — the
	// message is not lost, only the counter-challenge is.
	if n := b.eng.QuarantineLen(); n != 1 {
		t.Fatalf("B quarantine = %d, want 1", n)
	}

	// Control: a human sender (no Auto-Submitted) at B still gets
	// challenged — suppression is specific to auto-generated mail.
	human := &mail.Message{
		ID:           mail.NewID("h"),
		EnvelopeFrom: mail.MustParseAddress("bob@corp.example"),
		Rcpt:         mail.MustParseAddress("carol@other.example"),
		Subject:      "a genuine note from a person",
		Size:         2000,
		ClientIP:     "192.0.2.20",
		Received:     b.clk.Now(),
	}
	if r := b.eng.Receive(human); r != Accepted {
		t.Fatalf("human verdict at B = %v", r)
	}
	if len(b.sent) != 1 {
		t.Fatalf("B sent %d challenge(s) for a human sender, want 1", len(b.sent))
	}
	// ...and that challenge, arriving at A, is suppressed there too:
	// symmetry means neither deployment ever loops.
	am := a.eng.Metrics()
	if am.ChallengeLoopSuppressed != 1 {
		t.Fatalf("A loop-suppressed = %d, want 1", am.ChallengeLoopSuppressed)
	}
	if am.ChallengesSent != 1 {
		t.Fatalf("A challenges sent = %d, want 1 (the original only)", am.ChallengesSent)
	}
}
