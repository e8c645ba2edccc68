package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mail"
	"repro/internal/maillog"
)

// TestOpenRelayRelayedRecipientsDispatched: messages accepted for a
// relayed domain flow through the full dispatcher (they can be
// challenged), which is how the paper's open relays generated their +9%
// extra challenges.
func TestOpenRelayRelayedRecipientsDispatched(t *testing.T) {
	e := newEnv(t, true)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	m := e.goodMsg("alice@example.com", "whoever@relayed.example")
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict = %v", r)
	}
	met := e.eng.Metrics()
	if met.SpoolGray != 1 || met.ChallengesSent != 1 {
		t.Fatalf("relayed message not dispatched: %+v", met)
	}
}

func TestMTAInBytesAccounting(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	m1 := e.goodMsg("alice@example.com", "bob@corp.example")
	m1.Size = 1000
	m2 := e.goodMsg("alice@example.com", "ghost@corp.example") // dropped
	m2.Size = 500
	e.eng.Receive(m1)
	e.eng.Receive(m2)
	met := e.eng.Metrics()
	if met.MTAInBytes != 1500 {
		t.Fatalf("MTAInBytes = %d, want 1500 (drops count too)", met.MTAInBytes)
	}
	if met.DispatchBytes != 1000 {
		t.Fatalf("DispatchBytes = %d, want 1000 (accepted only)", met.DispatchBytes)
	}
}

// TestChallengeMailboxIsKnownRecipient: DSNs addressed to the challenge
// sender must not bounce as unknown users.
func TestChallengeMailboxIsKnownRecipient(t *testing.T) {
	e := newEnv(t, false)
	dsn := e.goodMsg("alice@example.com", "challenge@corp.example")
	dsn.EnvelopeFrom = mail.Null
	if r := e.eng.Receive(dsn); r != Accepted {
		t.Fatalf("DSN to challenge mailbox = %v, want Accepted", r)
	}
}

// TestSpoolIdentity: incoming always equals drops + spools, under any
// interleaving of classes.
func TestSpoolIdentity(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	e.eng.AddManualWhitelist(bob, mail.MustParseAddress("friend@example.com"))
	e.eng.Whitelists().AddBlack(bob, mail.MustParseAddress("enemy@example.com"))

	for i := 0; i < 30; i++ {
		var from, to string
		switch i % 5 {
		case 0:
			from, to = "friend@example.com", "bob@corp.example"
		case 1:
			from, to = "enemy@example.com", "bob@corp.example"
		case 2:
			from, to = fmt.Sprintf("s%d@example.com", i), "bob@corp.example"
		case 3:
			from, to = "x@example.com", "ghost@corp.example"
		default:
			from, to = "y@example.com", "foreign@elsewhere.example"
		}
		e.eng.Receive(e.goodMsg(from, to))
	}
	m := e.eng.Metrics()
	if m.MTAIncoming != m.TotalMTADropped()+m.SpoolWhite+m.SpoolBlack+m.SpoolGray {
		t.Fatalf("identity violated: %d != %d+%d+%d+%d",
			m.MTAIncoming, m.TotalMTADropped(), m.SpoolWhite, m.SpoolBlack, m.SpoolGray)
	}
	// Gray identity: filtered + challenged + suppressed + null = gray.
	grayAccounted := m.TotalFilterDropped() + m.ChallengesSent + m.ChallengeSuppressed + m.QuarantineOnly
	if grayAccounted != m.SpoolGray {
		t.Fatalf("gray identity violated: %d != %d", grayAccounted, m.SpoolGray)
	}
}

// TestEventSinkSequence checks the emitted event order for one message's
// full journey: accept -> dispatch -> challenge -> web solve -> deliver.
func TestEventSinkSequence(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	var kinds []maillog.Kind
	e.eng.SetEventSink(func(ev maillog.Event) { kinds = append(kinds, ev.Kind) })

	m := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m)
	svc := e.eng.Captcha()
	tok := e.sent[0].Token
	if _, err := svc.Visit(tok); err != nil {
		t.Fatal(err)
	}
	ans, _ := svc.Answer(tok)
	if err := svc.Solve(tok, ans); err != nil {
		t.Fatal(err)
	}

	want := []maillog.Kind{
		maillog.KindMTAAccept, maillog.KindDispatch, maillog.KindChallenge,
		maillog.KindWebVisit, maillog.KindWebSolve, maillog.KindDeliver,
	}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

// TestQuarantineExpirySweepUnderLoad: the daily sweep must be linear and
// drop exactly the over-age population.
func TestQuarantineExpirySweepUnderLoad(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	// 50 messages on day 0, 50 on day 20.
	for i := 0; i < 50; i++ {
		e.eng.Receive(e.goodMsg(fmt.Sprintf("a%d@example.com", i), "bob@corp.example"))
	}
	e.clk.Advance(20 * 24 * time.Hour)
	for i := 0; i < 50; i++ {
		e.eng.Receive(e.goodMsg(fmt.Sprintf("b%d@example.com", i), "bob@corp.example"))
	}
	e.clk.Advance(11 * 24 * time.Hour) // first batch now 31 days old
	if n := e.eng.ExpireQuarantine(); n != 50 {
		t.Fatalf("expired %d, want 50", n)
	}
	if e.eng.QuarantineLen() != 50 {
		t.Fatalf("remaining = %d, want 50", e.eng.QuarantineLen())
	}
}

// TestDeliveriesSnapshotIsolated: a whitelisted message reaches the
// inbox sink as exactly one ViaWhitelist Delivery naming the message.
func TestDeliveriesSnapshotIsolated(t *testing.T) {
	e := newEnv(t, false)
	bob := mail.MustParseAddress("bob@corp.example")
	e.eng.AddManualWhitelist(bob, mail.MustParseAddress("a@example.com"))
	var got []Delivery
	e.eng.SetInboxSink(func(d Delivery, _ *mail.Message) { got = append(got, d) })
	m := e.goodMsg("a@example.com", "bob@corp.example")
	e.eng.Receive(m)
	if len(got) != 1 {
		t.Fatalf("inbox sink received %d deliveries, want 1", len(got))
	}
	if got[0].Via != ViaWhitelist || got[0].MsgID != m.ID {
		t.Fatalf("delivery = %+v, want ViaWhitelist of %s", got[0], m.ID)
	}
}
