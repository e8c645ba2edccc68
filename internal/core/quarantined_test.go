package core

import (
	"testing"
	"time"

	"repro/internal/mail"
)

// TestQuarantinedLifecycle pins Engine.Quarantined, on which the fleet
// decides whether it may reuse an accepted message: true exactly from
// quarantine until a solve, a digest authorize or delete, or expiry
// releases the message, and false for mail the engine never kept.
func TestQuarantinedLifecycle(t *testing.T) {
	e := newEnv(t, false)
	bob := mail.MustParseAddress("bob@corp.example")
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	e.dns.AddPTR("192.0.2.66", "listed.example.com")
	e.rblProv.AddStatic("192.0.2.66")

	receive := func(m *mail.Message, want bool) {
		t.Helper()
		e.eng.Receive(m)
		if got := e.eng.Quarantined(m.ID); got != want {
			t.Fatalf("%s from %s: Quarantined = %v after Receive, want %v", m.ID, m.EnvelopeFrom, got, want)
		}
	}
	released := func(what string, ms ...*mail.Message) {
		t.Helper()
		for _, m := range ms {
			if e.eng.Quarantined(m.ID) {
				t.Fatalf("%s: %s still quarantined", what, m.ID)
			}
		}
	}

	// Mail the engine does not keep: an MTA rejection, a whitelisted
	// delivery, a blacklisted sender and a filter drop.
	receive(e.goodMsg("alice@example.com", "nobody@corp.example"), false)
	e.eng.AddManualWhitelist(bob, mail.MustParseAddress("friend@example.com"))
	receive(e.goodMsg("friend@example.com", "bob@corp.example"), false)
	if !e.eng.Whitelists().AddBlack(bob, mail.MustParseAddress("pest@example.com")) {
		t.Fatal("AddBlack refused")
	}
	receive(e.goodMsg("pest@example.com", "bob@corp.example"), false)
	dropped := e.goodMsg("spammer@example.com", "bob@corp.example")
	dropped.ClientIP = "192.0.2.66"
	receive(dropped, false)
	if m := e.eng.Metrics(); m.MTADropped[UnknownRecipient] != 1 || m.SpoolWhite != 1 ||
		m.SpoolBlack != 1 || m.FilterDropped["rbl"] != 1 {
		t.Fatalf("setup did not reach each path once: %+v", m)
	}

	// A challenged message, and a second one from the same sender held
	// behind the pending challenge: both stay until the solve.
	first := e.goodMsg("carol@example.com", "bob@corp.example")
	receive(first, true)
	second := e.goodMsg("carol@example.com", "bob@corp.example")
	receive(second, true)
	// A bounce is quarantined for the digest, never challenged.
	bounce := e.goodMsg("carol@example.com", "bob@corp.example")
	bounce.EnvelopeFrom = mail.Null
	receive(bounce, true)
	e.clk.Advance(time.Hour)
	if !e.eng.Quarantined(first.ID) || !e.eng.Quarantined(second.ID) {
		t.Fatal("challenged messages released before the solve")
	}
	svc := e.eng.Captcha()
	tok := e.sent[len(e.sent)-1].Token
	ans, err := svc.Answer(tok)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Solve(tok, ans); err != nil {
		t.Fatal(err)
	}
	released("solve", first, second)
	if !e.eng.Quarantined(bounce.ID) {
		t.Fatal("the solve released an unrelated bounce")
	}

	// Digest actions release exactly the message they name.
	authorized := e.goodMsg("dave@example.com", "bob@corp.example")
	receive(authorized, true)
	deleted := e.goodMsg("erin@example.com", "bob@corp.example")
	receive(deleted, true)
	if err := e.eng.AuthorizeFromDigest(bob, authorized.ID); err != nil {
		t.Fatal(err)
	}
	released("authorize", authorized)
	if !e.eng.Quarantined(deleted.ID) {
		t.Fatal("authorize released another message")
	}
	if err := e.eng.DeleteFromDigest(bob, deleted.ID); err != nil {
		t.Fatal(err)
	}
	released("delete", deleted)

	// Expiry releases whatever outlived the TTL, and nothing earlier.
	expiring := e.goodMsg("frank@example.com", "bob@corp.example")
	receive(expiring, true)
	e.clk.Advance(29 * 24 * time.Hour)
	e.eng.ExpireQuarantine()
	if !e.eng.Quarantined(expiring.ID) || !e.eng.Quarantined(bounce.ID) {
		t.Fatal("expiry released mail younger than the TTL")
	}
	e.clk.Advance(2 * 24 * time.Hour)
	e.eng.ExpireQuarantine()
	released("expiry", expiring, bounce)
	if n := e.eng.QuarantineLen(); n != 0 {
		t.Fatalf("quarantine holds %d messages, want 0", n)
	}
	if e.eng.Quarantined("never-seen") {
		t.Fatal("Quarantined true for an unknown ID")
	}
}

// TestPendingCount pins PendingCount to the length of the digest
// PendingForUser builds, with the recipient matched canonically.
func TestPendingCount(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	for i, from := range []string{"a@example.com", "b@example.com", "a@example.com"} {
		if got, want := e.eng.PendingCount(bob), len(e.eng.PendingForUser(bob)); got != want || got != i {
			t.Fatalf("PendingCount = %d, digest has %d, want %d", got, want, i)
		}
		e.eng.Receive(e.goodMsg(from, "bob@corp.example"))
	}
	if got := e.eng.PendingCount(mail.MustParseAddress("BOB@corp.example")); got != 3 {
		t.Fatalf("PendingCount(BOB) = %d, want 3", got)
	}
	if got := e.eng.PendingCount(mail.MustParseAddress("amy@corp.example")); got != 0 {
		t.Fatalf("PendingCount(amy) = %d, want 0", got)
	}
}
