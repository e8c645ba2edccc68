package simnet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mail"
)

// TestTargetedAttackBypassesCRByDesign reproduces the §4.1 observation:
// CR filters are ineffective by design against targeted attacks — an
// attacker who uses a real, attacker-controlled sender address receives
// the challenge and simply solves it, delivering the malicious message
// AND whitelisting himself for all future mail. (The paper cites
// Symantec: only ~1 in 5,000 spam messages is targeted, and no anti-spam
// class stops them.)
func TestTargetedAttackBypassesCRByDesign(t *testing.T) {
	w := newWorld(t, 77)
	r := w.addRemote("attacker.example", "192.0.2.200")
	// The attacker watches his real mailbox and solves immediately.
	attacker := Behavior{
		VisitProb:           1,
		SolveProbGivenVisit: 1,
		Delay:               DefaultBehavior(PersonaLegit).Delay,
		AttemptsDist:        []float64{1}, // first try, obviously
	}
	r.AddMailboxBehavior("mallory", PersonaLegit, attacker)

	// The hand-crafted spear-phish.
	w.inject("mallory@attacker.example", "192.0.2.200")
	w.sched.RunUntil(w.clk.Now().Add(7 * 24 * time.Hour))

	eng := w.comp.Engine
	if got := eng.Metrics().Delivered[core.ViaChallenge]; got != 1 {
		t.Fatalf("targeted message deliveries = %d; CR cannot stop a solving attacker", got)
	}
	bob := mail.MustParseAddress("bob@corp.example")
	mallory := mail.MustParseAddress("mallory@attacker.example")
	if !eng.Whitelists().IsWhite(bob, mallory) {
		t.Fatal("attacker not whitelisted after solving — but he is now trusted forever")
	}

	// Follow-up attack mail flows straight to the inbox, unchallenged.
	w.inject("mallory@attacker.example", "192.0.2.200")
	if got := eng.Metrics().SpoolWhite; got != 1 {
		t.Fatalf("follow-up not instant-delivered: white=%d", got)
	}
	if got := eng.Metrics().ChallengesSent; got != 1 {
		t.Fatalf("follow-up was re-challenged: %d", got)
	}

	// The user's only defence is the blacklist.
	eng.Whitelists().RemoveWhite(bob, mallory)
	eng.Whitelists().AddBlack(bob, mallory)
	w.inject("mallory@attacker.example", "192.0.2.200")
	if got := eng.Metrics().SpoolBlack; got != 1 {
		t.Fatalf("blacklisted attacker not dropped: black=%d", got)
	}
}
