package core

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bodystore"
	"repro/internal/mail"
)

// countingBodies is a disk body store that counts what the engine asks
// of it.
type countingBodies struct {
	*bodystore.Store
	puts, frees int
}

func (c *countingBodies) Put(body string) (bodystore.Ref, string) {
	c.puts++
	return c.Store.Put(body)
}

func (c *countingBodies) Free(r bodystore.Ref) {
	c.frees++
	c.Store.Free(r)
}

// newBodiesEnv is newEnv whose engine keeps bodies in b, with no filter
// chain; inbox says whether an inbox sink is installed.
func newBodiesEnv(t *testing.T, b Bodies, inbox bool) (*env, map[string]string) {
	t.Helper()
	e := newEnv(t, false)
	cfg := e.eng.Config()
	cfg.Bodies = b
	e.eng = New(cfg, e.clk, e.dns, nil, e.eng.Whitelists(), func(ch OutboundChallenge) { e.sent = append(e.sent, ch) })
	e.eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	delivered := map[string]string{} // message ID -> body read back
	if inbox {
		e.eng.SetInboxSink(func(d Delivery, m *mail.Message) {
			e.inbox = append(e.inbox, d)
			body := m.Body
			if d.Body != (bodystore.Ref{}) {
				var err error
				if body, err = b.(*countingBodies).Get(d.Body); err != nil {
					t.Errorf("delivery %s: %v", d.MsgID, err)
				}
			}
			delivered[d.MsgID] = body
		})
	}
	return e, delivered
}

// borrowed returns a message whose body aliases a buffer the caller
// overwrites once Receive returns, as an SMTP session does.
func (e *env) borrowed(from, body string) (*mail.Message, []byte) {
	m := e.goodMsg(from, "bob@corp.example")
	buf := []byte(body)
	m.Body = unsafe.String(&buf[0], len(buf))
	return m, buf
}

func overwrite(buf []byte) {
	for i := range buf {
		buf[i] = '#'
	}
}

// TestBodiesLifecycle: the engine puts each quarantined body in
// Config.Bodies once and leaves none of it on the message; expiry and a
// digest delete free it; a solve or an authorize hands the reference to
// the inbox sink; a white delivery puts its borrowed body once, and only
// for a sink.
func TestBodiesLifecycle(t *testing.T) {
	store := &countingBodies{Store: bodystore.New(t.TempDir())}
	e, delivered := newBodiesEnv(t, store, true)
	bob := mail.MustParseAddress("bob@corp.example")
	live := func(want int64) {
		t.Helper()
		if got := store.Stats().Live; got != want {
			t.Fatalf("live bodies = %d, want %d", got, want)
		}
	}
	bodies := map[string]string{}
	receive := func(from string) *mail.Message {
		t.Helper()
		body := "Subject: s\r\n\r\nbody of a message from " + from + strings.Repeat(".", 100) + "\r\n"
		m, buf := e.borrowed(from, body)
		e.eng.Receive(m)
		overwrite(buf)
		bodies[m.ID] = body
		return m
	}

	a := receive("alice@example.com")
	a2 := receive("alice@example.com") // held behind alice's challenge
	live(2)
	if a.Body != "" || a2.Body != "" {
		t.Fatal("a quarantined message kept its body on the heap")
	}

	e.eng.AddManualWhitelist(bob, mail.MustParseAddress("friend@example.com"))
	w := receive("friend@example.com")
	live(3)

	svc := e.eng.Captcha()
	tok := e.sent[0].Token
	ans, _ := svc.Answer(tok)
	if err := svc.Solve(tok, ans); err != nil {
		t.Fatal(err)
	}
	d := receive("dave@example.com")
	if err := e.eng.AuthorizeFromDigest(bob, d.ID); err != nil {
		t.Fatal(err)
	}
	live(4)
	if store.puts != 4 || store.frees != 0 {
		t.Fatalf("puts %d, frees %d after three quarantines and a white delivery", store.puts, store.frees)
	}
	for _, m := range []*mail.Message{a, a2, w, d} {
		if got, ok := delivered[m.ID]; !ok || got != bodies[m.ID] {
			t.Fatalf("%s delivered with body %q, want %q", m.ID, got, bodies[m.ID])
		}
	}

	x := receive("erin@example.com")
	if err := e.eng.DeleteFromDigest(bob, x.ID); err != nil {
		t.Fatal(err)
	}
	receive("frank@example.com")
	live(5)
	e.clk.Advance(31 * 24 * time.Hour)
	if n := e.eng.ExpireQuarantine(); n != 1 {
		t.Fatalf("expired %d", n)
	}
	live(4)
	if store.frees != 2 {
		t.Fatalf("frees = %d after a delete and an expiry, want 2", store.frees)
	}
}

// TestBodiesWithoutInboxSink: with no sink the engine frees the body of a
// released message and keeps no white body at all.
func TestBodiesWithoutInboxSink(t *testing.T) {
	store := &countingBodies{Store: bodystore.New(t.TempDir())}
	e, _ := newBodiesEnv(t, store, false)
	bob := mail.MustParseAddress("bob@corp.example")
	m, _ := e.borrowed("alice@example.com", "hello")
	e.eng.Receive(m)
	if err := e.eng.AuthorizeFromDigest(bob, m.ID); err != nil {
		t.Fatal(err)
	}
	w, _ := e.borrowed("alice@example.com", "now white")
	e.eng.Receive(w)
	if store.puts != 1 || store.frees != 1 || store.Stats().Live != 0 {
		t.Fatalf("puts %d, frees %d, live %d", store.puts, store.frees, store.Stats().Live)
	}
}

// TestNilBodiesCopies: without Config.Bodies the engine copies a kept
// body onto the heap, so a caller may reuse its buffer after Receive.
func TestNilBodiesCopies(t *testing.T) {
	e, _ := newBodiesEnv(t, nil, false)
	var got []*mail.Message
	e.eng.SetInboxSink(func(_ Delivery, m *mail.Message) { got = append(got, m) })
	bob := mail.MustParseAddress("bob@corp.example")
	gray, buf := e.borrowed("alice@example.com", "gray body")
	e.eng.Receive(gray)
	overwrite(buf)
	e.eng.AddManualWhitelist(bob, mail.MustParseAddress("friend@example.com"))
	white, buf := e.borrowed("friend@example.com", "white body")
	e.eng.Receive(white)
	overwrite(buf)
	if err := e.eng.AuthorizeFromDigest(bob, gray.ID); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Body != "white body" || got[1].Body != "gray body" {
		t.Fatalf("delivered %d messages: %+v", len(got), got)
	}
}

// TestDSNEventFieldsOutliveTheBody: the bounce event's fields are read
// from a borrowed body, and the event sink may keep the event after the
// caller has reused the body's buffer.
func TestDSNEventFieldsOutliveTheBody(t *testing.T) {
	e := newEnv(t, false)
	bounces := e.bounceEvents()
	// An orphaned DSN: its status, its final recipient's domain and the
	// message ID it names all come from the body.
	m := e.dsnFor("smtp-000042", "nobody@far.example", "5.1.1", "550 no such user")
	buf := []byte(m.Body)
	m.Body = unsafe.String(&buf[0], len(buf))
	e.eng.Receive(m)
	overwrite(buf)
	evs := *bounces
	if len(evs) != 1 || evs[0].MsgID != "smtp-000042" || evs[0].Field("status") != "5.1.1" ||
		evs[0].Field("domain") != "far.example" || evs[0].Field("class") != "no-user" {
		t.Fatalf("bounce events after the body was overwritten: %+v", evs)
	}
}
