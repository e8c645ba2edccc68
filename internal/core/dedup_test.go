package core

import (
	"testing"
	"time"

	"repro/internal/mail"
)

// TestChallengeDedupPerSenderPair verifies that a sender is challenged at
// most once per mailbox while a challenge is outstanding, and that
// solving the one challenge releases every queued message from that
// sender.
func TestChallengeDedupPerSenderPair(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")

	var msgs []*mail.Message
	for i := 0; i < 4; i++ {
		m := e.goodMsg("alice@example.com", "bob@corp.example")
		msgs = append(msgs, m)
		e.eng.Receive(m)
		e.clk.Advance(time.Minute)
	}
	met := e.eng.Metrics()
	if met.ChallengesSent != 1 {
		t.Fatalf("ChallengesSent = %d, want 1 (deduplicated)", met.ChallengesSent)
	}
	if met.ChallengeSuppressed != 3 {
		t.Fatalf("ChallengeSuppressed = %d, want 3", met.ChallengeSuppressed)
	}
	if e.eng.QuarantineLen() != 4 {
		t.Fatalf("quarantine = %d, want 4", e.eng.QuarantineLen())
	}
	if len(e.sent) != 1 {
		t.Fatalf("outbound challenges = %d, want 1", len(e.sent))
	}

	// Solving the single challenge releases all four messages.
	svc := e.eng.Captcha()
	ans, err := svc.Answer(e.sent[0].Token)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Solve(e.sent[0].Token, ans); err != nil {
		t.Fatal(err)
	}
	if got := e.eng.Metrics().Delivered[ViaChallenge]; got != 4 {
		t.Fatalf("delivered via challenge = %d, want 4", got)
	}
	if e.eng.QuarantineLen() != 0 {
		t.Fatal("quarantine not drained")
	}
}

// TestChallengeDedupIsPerRecipient: the same sender writing to two
// protected users gets two challenges (whitelists are per-user).
func TestChallengeDedupIsPerRecipient(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	e.eng.AddUser(mail.MustParseAddress("carol@corp.example"))

	e.eng.Receive(e.goodMsg("alice@example.com", "bob@corp.example"))
	e.eng.Receive(e.goodMsg("alice@example.com", "carol@corp.example"))
	if got := e.eng.Metrics().ChallengesSent; got != 2 {
		t.Fatalf("ChallengesSent = %d, want 2 (per-recipient)", got)
	}
}

// TestDedupClearedByDigestDelete: deleting the challenged message from
// the digest clears the pending state, so the sender is challenged again
// next time.
func TestDedupClearedByDigestDelete(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")

	m1 := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m1)
	if err := e.eng.DeleteFromDigest(bob, m1.ID); err != nil {
		t.Fatal(err)
	}
	m2 := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m2)
	if got := e.eng.Metrics().ChallengesSent; got != 2 {
		t.Fatalf("ChallengesSent = %d, want 2 after digest delete", got)
	}
}

// TestDedupClearedByExpiry: after the quarantine TTL passes and the sweep
// runs, a new message from the same sender is challenged again.
func TestDedupClearedByExpiry(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")

	e.eng.Receive(e.goodMsg("alice@example.com", "bob@corp.example"))
	e.clk.Advance(31 * 24 * time.Hour)
	if n := e.eng.ExpireQuarantine(); n != 1 {
		t.Fatalf("expired = %d", n)
	}
	e.eng.Receive(e.goodMsg("alice@example.com", "bob@corp.example"))
	if got := e.eng.Metrics().ChallengesSent; got != 2 {
		t.Fatalf("ChallengesSent = %d, want 2 after expiry", got)
	}
}

// TestDigestAuthorizeReleasesOnlyThatMessage: authorizing one of several
// queued messages from a sender delivers that one; the rest stay
// quarantined (but the sender is now whitelisted, so solving is moot).
func TestDigestAuthorizeWithQueuedSiblings(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")

	m1 := e.goodMsg("alice@example.com", "bob@corp.example")
	m2 := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m1)
	e.eng.Receive(m2)
	if err := e.eng.AuthorizeFromDigest(bob, m2.ID); err != nil {
		t.Fatal(err)
	}
	if got := e.eng.Metrics().Delivered[ViaDigest]; got != 1 {
		t.Fatalf("digest deliveries = %d, want 1", got)
	}
	if e.eng.QuarantineLen() != 1 {
		t.Fatalf("quarantine = %d, want 1 (m1 still held)", e.eng.QuarantineLen())
	}
	// Solving the original challenge still releases m1.
	svc := e.eng.Captcha()
	ans, _ := svc.Answer(e.sent[0].Token)
	if err := svc.Solve(e.sent[0].Token, ans); err != nil {
		t.Fatal(err)
	}
	if e.eng.QuarantineLen() != 0 {
		t.Fatal("m1 not released by solve")
	}
}

// TestMessageChallengedAtMostOnce: the engine issues a challenge only
// when it first quarantines a message, and one at that, so each
// outbound challenge names a different message and token. Holding,
// solving, a digest action or expiry issues none, and the solve drops
// the token with the message.
func TestMessageChallengedAtMostOnce(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	svc := e.eng.Captcha()

	first := e.goodMsg("alice@example.com", "bob@corp.example")
	held := e.goodMsg("alice@example.com", "bob@corp.example")
	other := e.goodMsg("carol@example.com", "bob@corp.example")
	auto := e.goodMsg("dave@example.com", "bob@corp.example")
	auto.AutoSubmitted = "auto-replied"
	bounce := e.goodMsg("erin@example.com", "bob@corp.example")
	bounce.EnvelopeFrom = mail.Null
	for _, m := range []*mail.Message{first, held, other, auto, bounce} {
		e.eng.Receive(m)
	}
	if len(e.sent) != 2 || e.sent[0].MsgID != first.ID || e.sent[1].MsgID != other.ID ||
		e.sent[0].Token == e.sent[1].Token {
		t.Fatalf("challenges sent: %+v, want one for %s and one for %s", e.sent, first.ID, other.ID)
	}

	tok := e.sent[0].Token
	ans, err := svc.Answer(tok)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Solve(tok, ans); err != nil {
		t.Fatal(err)
	}
	if e.eng.Quarantined(first.ID) || e.eng.Quarantined(held.ID) {
		t.Fatal("the solve left its pair's messages quarantined")
	}
	if _, err := svc.Answer(tok); err == nil {
		t.Fatal("the solved challenge's token still answers")
	}
	if err := e.eng.AuthorizeFromDigest(bob, auto.ID); err != nil {
		t.Fatal(err)
	}
	if err := e.eng.DeleteFromDigest(bob, other.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Answer(e.sent[1].Token); err == nil {
		t.Fatal("a deleted message's token still answers")
	}
	e.clk.Advance(31 * 24 * time.Hour)
	if n := e.eng.ExpireQuarantine(); n != 1 {
		t.Fatalf("expired %d, want the bounce", n)
	}
	if len(e.sent) != 2 {
		t.Fatalf("%d challenges sent, want still 2", len(e.sent))
	}
}
