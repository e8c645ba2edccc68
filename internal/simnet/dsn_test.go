package simnet

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/rbl"
	"repro/internal/whitelist"
)

// newDSNWorld builds a single-company network with DSN emission enabled.
func newDSNWorld(t *testing.T) *world {
	t.Helper()
	w := &world{clk: clock.NewSim(t0)}
	w.sched = clock.NewScheduler(w.clk)
	w.dns = dnssim.NewServer()
	w.provs = rbl.StandardProviders(w.clk)
	w.traps = rbl.NewTrapRegistry(w.provs...)
	w.net = New(w.dns, w.traps, Config{EmitDSNs: true})

	chain := filters.NewChain(filters.NewAntivirus(), filters.NewReverseDNS(w.dns))
	eng := core.New(core.Config{
		Name:             "corp",
		Domains:          []string{"corp.example"},
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, w.clk, w.dns, chain, whitelist.NewStore(w.clk), nil)
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	w.dns.RegisterMailDomain("corp.example", "198.51.100.1")
	w.comp = &Company{Name: "corp", Engine: eng, ChallengeIP: "198.51.100.1", MailIP: "198.51.100.1"}
	w.net.AttachCompanyLane(w.comp, w.clk, w.sched, 3, w.dns, nil)
	return w
}

func TestBouncedChallengeProducesDSN(t *testing.T) {
	w := newDSNWorld(t)
	w.addRemote("example.com", "192.0.2.10") // mailbox will not exist
	w.inject("ghost@example.com", "192.0.2.10")
	w.sched.RunUntil(w.clk.Now().Add(time.Hour))

	rec := w.net.Records()[0]
	if rec.Status != StatusBouncedNoUser {
		t.Fatalf("status = %v", rec.Status)
	}
	m := w.comp.Engine.Metrics()
	// The engine saw two messages: the spam and the DSN for its own
	// bounced challenge.
	if m.MTAIncoming != 2 {
		t.Fatalf("MTAIncoming = %d, want 2 (original + DSN)", m.MTAIncoming)
	}
	// The DSN is null-sender: quarantined for the digest, never
	// challenged (no mail loop).
	if m.QuarantineOnly != 1 {
		t.Fatalf("QuarantineOnly = %d, want 1 (the DSN)", m.QuarantineOnly)
	}
	if m.ChallengesSent != 1 {
		t.Fatalf("ChallengesSent = %d — challenging a DSN would loop", m.ChallengesSent)
	}
	// The DSN lands in the challenge mailbox's pending list.
	pending := w.comp.Engine.PendingForUser(mail.MustParseAddress("challenge@corp.example"))
	if len(pending) != 1 || !pending[0].Sender.IsNull() {
		t.Fatalf("challenge-mailbox pending = %+v", pending)
	}
}

func TestExpiredChallengeProducesDSN(t *testing.T) {
	w := newDSNWorld(t)
	r := w.addRemote("deadmx.example", "192.0.2.66")
	r.Unreachable = true
	w.inject("x@deadmx.example", "192.0.2.66")
	w.sched.RunUntil(w.clk.Now().Add(10 * 24 * time.Hour))

	if w.net.Records()[0].Status != StatusExpired {
		t.Fatalf("status = %v", w.net.Records()[0].Status)
	}
	if got := w.comp.Engine.Metrics().QuarantineOnly; got != 1 {
		t.Fatalf("expired challenge produced %d DSNs, want 1", got)
	}
}

func TestDeliveredChallengeProducesNoDSN(t *testing.T) {
	w := newDSNWorld(t)
	r := w.addRemote("example.com", "192.0.2.10")
	r.AddMailbox("alice", PersonaRobot) // delivered, ignored
	w.inject("alice@example.com", "192.0.2.10")
	w.sched.RunUntil(w.clk.Now().Add(time.Hour))

	if got := w.comp.Engine.Metrics().MTAIncoming; got != 1 {
		t.Fatalf("MTAIncoming = %d, want 1 (no DSN for delivered challenges)", got)
	}
}

func TestDSNDisabledByDefault(t *testing.T) {
	w := newWorld(t, 44) // EmitDSNs false
	w.addRemote("example.com", "192.0.2.10")
	w.inject("ghost@example.com", "192.0.2.10")
	w.sched.RunUntil(w.clk.Now().Add(time.Hour))
	if got := w.comp.Engine.Metrics().MTAIncoming; got != 1 {
		t.Fatalf("MTAIncoming = %d; DSNs should be off by default", got)
	}
}
