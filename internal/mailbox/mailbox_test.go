package mailbox

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bodystore"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/whitelist"
)

var (
	t0  = time.Date(2010, 7, 1, 12, 0, 0, 0, time.UTC)
	bob = mail.MustParseAddress("bob@corp.example")
)

func stored(from, subject, body string, via core.DeliveryVia) Stored {
	return Stored{
		Msg: &mail.Message{
			ID:           mail.NewID("mb"),
			EnvelopeFrom: mail.MustParseAddress(from),
			Rcpt:         bob,
			Subject:      subject,
			Body:         body,
		},
		Via:       via,
		Delivered: t0,
	}
}

func TestSinkFilesDeliveries(t *testing.T) {
	s := NewStore()
	sink := s.Sink()
	d := core.Delivery{User: bob, DeliveredAt: t0, Via: core.ViaWhitelist}
	m := &mail.Message{ID: "m-1", EnvelopeFrom: mail.MustParseAddress("a@x.example"), Rcpt: bob, Subject: "hi"}
	sink(d, m)
	in := s.Inbox(bob)
	if len(in) != 1 || in[0].Msg.ID != "m-1" || in[0].Via != core.ViaWhitelist {
		t.Fatalf("inbox = %+v", in)
	}
}

func TestInboxIsolatedPerUser(t *testing.T) {
	s := NewStore()
	carol := mail.MustParseAddress("carol@corp.example")
	s.Sink()(core.Delivery{User: bob, DeliveredAt: t0}, &mail.Message{ID: "m-1", Rcpt: bob})
	if len(s.Inbox(carol)) != 0 {
		t.Fatal("delivery leaked across users")
	}
}

func TestWriteMboxFormat(t *testing.T) {
	s := NewStore()
	sink := s.Sink()
	st := stored("alice@example.com", "lunch plans", "Hi Bob,\r\nLunch at noon?\r\n", core.ViaChallenge)
	sink(core.Delivery{User: bob, DeliveredAt: t0, Via: core.ViaChallenge}, st.Msg)

	var sb strings.Builder
	if err := s.WriteMbox(&sb, bob); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"From alice@example.com ",
		"Subject: lunch plans",
		"X-CR-Delivered-Via: challenge",
		"Message-ID: <",
		"Lunch at noon?",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("mbox missing %q:\n%s", want, out)
		}
	}
	if n := separators(out); n != 1 {
		t.Fatalf("mbox holds %d messages, want 1", n)
	}
}

func TestMboxrdQuoting(t *testing.T) {
	s := NewStore()
	body := "From the desk of Bob\n>From quoted already\nnormal line"
	st := stored("a@x.example", "quoting", body, core.ViaWhitelist)
	s.Sink()(core.Delivery{User: bob, DeliveredAt: t0}, st.Msg)

	var sb strings.Builder
	if err := s.WriteMbox(&sb, bob); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "\n>From the desk of Bob\n") {
		t.Fatalf("body From-line not quoted:\n%s", out)
	}
	if !strings.Contains(out, "\n>>From quoted already\n") {
		t.Fatalf("nested quoting wrong:\n%s", out)
	}
	// The quoted lines must not count as separators.
	if n := separators(out); n != 1 {
		t.Fatalf("quoted lines counted as separators: %d", n)
	}
}

func TestNullSenderBecomesMailerDaemon(t *testing.T) {
	s := NewStore()
	m := &mail.Message{ID: "m-dsn", EnvelopeFrom: mail.Null, Rcpt: bob, Subject: "bounce"}
	s.Sink()(core.Delivery{User: bob, DeliveredAt: t0}, m)
	var sb strings.Builder
	if err := s.WriteMbox(&sb, bob); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "From MAILER-DAEMON ") {
		t.Fatalf("DSN separator wrong:\n%s", sb.String())
	}
}

// TestEngineIntegration wires the store to a live engine: delivered mail
// (instant and challenge-solved) lands in the mailbox.
func TestEngineIntegration(t *testing.T) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")
	var sent []core.OutboundChallenge
	eng := core.New(core.Config{
		Name:             "mb",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, filters.NewChain(), whitelist.NewStore(clk), func(ch core.OutboundChallenge) { sent = append(sent, ch) })
	eng.AddUser(bob)
	store := NewStore()
	eng.SetInboxSink(store.Sink())

	alice := mail.MustParseAddress("alice@example.com")
	eng.AddManualWhitelist(bob, alice)
	eng.Receive(&mail.Message{
		ID: "m-white", EnvelopeFrom: alice, Rcpt: bob,
		Subject: "instant", Body: "hello", Size: 100, Received: clk.Now(),
	})
	eng.Receive(&mail.Message{
		ID: "m-gray", EnvelopeFrom: mail.MustParseAddress("stranger@example.com"), Rcpt: bob,
		Subject: "challenged", Body: "hi", Size: 100, Received: clk.Now(),
	})
	if n := len(store.Inbox(bob)); n != 1 {
		t.Fatalf("inbox before solve = %d, want 1", n)
	}
	// Solve the challenge the stranger was sent: the gray message
	// arrives too.
	if len(sent) != 1 || sent[0].MsgID != "m-gray" {
		t.Fatalf("challenges sent = %+v, want one for m-gray", sent)
	}
	svc := eng.Captcha()
	ans, _ := svc.Answer(sent[0].Token)
	if err := svc.Solve(sent[0].Token, ans); err != nil {
		t.Fatal(err)
	}
	if n := len(store.Inbox(bob)); n != 2 {
		t.Fatalf("inbox after solve = %d, want 2", n)
	}
	in := store.Inbox(bob)
	if in[0].Via != core.ViaWhitelist || in[1].Via != core.ViaChallenge {
		t.Fatalf("delivery paths = %v, %v", in[0].Via, in[1].Via)
	}
}

// separators counts the messages in an mbox stream: its "From " lines.
// mboxrd-quoted ">From " lines are not separators.
func separators(mbox string) int {
	n := 0
	for _, line := range strings.Split(mbox, "\n") {
		if strings.HasPrefix(line, "From ") {
			n++
		}
	}
	return n
}

// TestWriteMboxReadsTheBodyStore: a delivery whose body the engine kept
// in the body store is filed by reference and read back for the export.
func TestWriteMboxReadsTheBodyStore(t *testing.T) {
	bodies := bodystore.New(t.TempDir())
	s := NewStore()
	s.SetBodies(bodies)
	st := stored("alice@example.com", "stored", "", core.ViaDigest)
	ref, _ := bodies.Put("Kept in the body store.\r\n")
	s.Sink()(core.Delivery{User: bob, DeliveredAt: t0, Via: core.ViaDigest, Body: ref}, st.Msg)
	var sb strings.Builder
	if err := s.WriteMbox(&sb, bob); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\n\nKept in the body store.\n") {
		t.Fatalf("mbox missing the stored body:\n%s", sb.String())
	}
}

// TestWriteMboxKeepsAMessageWhoseBodyFailsToRead: a body the store cannot
// read does not drop its message from the export; the message is marked,
// the rest of the inbox follows, and the error is returned.
func TestWriteMboxKeepsAMessageWhoseBodyFailsToRead(t *testing.T) {
	s := NewStore()
	s.SetBodies(bodystore.New(t.TempDir()))
	// A reference from another store names nothing in this one.
	ref, _ := bodystore.New(t.TempDir()).Put("lost")
	lost := stored("alice@example.com", "unreadable", "", core.ViaChallenge)
	s.Sink()(core.Delivery{User: bob, DeliveredAt: t0, Via: core.ViaChallenge, Body: ref}, lost.Msg)
	next := stored("carol@example.com", "readable", "still here\r\n", core.ViaWhitelist)
	s.Sink()(core.Delivery{User: bob, DeliveredAt: t0}, next.Msg)
	var sb strings.Builder
	err := s.WriteMbox(&sb, bob)
	if err == nil || !strings.Contains(err.Error(), lost.Msg.ID) {
		t.Fatalf("WriteMbox error = %v, want one naming %s", err, lost.Msg.ID)
	}
	out := sb.String()
	for _, want := range []string{"Subject: unreadable\n", "X-CR-Body-Error: ", "Subject: readable\n", "still here\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mbox missing %q:\n%s", want, out)
		}
	}
	if n := separators(out); n != 2 {
		t.Fatalf("mbox holds %d messages, want 2", n)
	}
}
