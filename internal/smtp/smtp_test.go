package smtp

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mail"
)

// recordingBackend accepts everything unless programmed otherwise, and
// records deliveries.
type recordingBackend struct {
	mu         sync.Mutex
	delivered  []*mail.Message
	rejectFrom map[string]*Reply
	rejectRcpt map[string]*Reply
	deliverErr *Reply
}

func newBackend() *recordingBackend {
	return &recordingBackend{
		rejectFrom: make(map[string]*Reply),
		rejectRcpt: make(map[string]*Reply),
	}
}

func (b *recordingBackend) ValidateSender(from mail.Address) *Reply {
	return b.rejectFrom[from.Key()]
}

func (b *recordingBackend) ValidateRcpt(from, rcpt mail.Address) *Reply {
	return b.rejectRcpt[rcpt.Key()]
}

func (b *recordingBackend) Deliver(msg *mail.Message) *Reply {
	if b.deliverErr != nil {
		return b.deliverErr
	}
	kept := *msg
	kept.Body = strings.Clone(msg.Body) // the body is borrowed
	b.mu.Lock()
	b.delivered = append(b.delivered, &kept)
	b.mu.Unlock()
	return nil
}

func (b *recordingBackend) messages() []*mail.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*mail.Message, len(b.delivered))
	copy(out, b.delivered)
	return out
}

// startServer runs a Server on a random TCP port and returns its address.
func startServer(t testing.TB, backend Backend) (string, *Server) {
	t.Helper()
	srv := NewServer(Config{Hostname: "mta.corp.example", ReadTimeout: 5 * time.Second}, backend)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(srv.Close)
	return l.Addr().String(), srv
}

func dialOK(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Hello("client.example.com"); err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	alice = mail.MustParseAddress("alice@example.com")
	bob   = mail.MustParseAddress("bob@corp.example")
)

func TestFullTransaction(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)

	body := BuildMessage(alice, bob, "hello bob this is a real subject", "Hi Bob,\r\nLunch?\r\n")
	if err := c.SendMail(alice, []mail.Address{bob}, body); err != nil {
		t.Fatal(err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}

	msgs := b.messages()
	if len(msgs) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	if m.EnvelopeFrom != alice || m.Rcpt != bob {
		t.Fatalf("envelope = %v -> %v", m.EnvelopeFrom, m.Rcpt)
	}
	if m.Subject != "hello bob this is a real subject" {
		t.Fatalf("subject = %q", m.Subject)
	}
	if m.HeaderFrom != alice {
		t.Fatalf("header From = %v", m.HeaderFrom)
	}
	if m.ClientIP != "127.0.0.1" {
		t.Fatalf("client IP = %q", m.ClientIP)
	}
	if m.HeloDomain != "client.example.com" {
		t.Fatalf("helo = %q", m.HeloDomain)
	}
	if m.Size != len(m.Body) || m.Size == 0 {
		t.Fatalf("size = %d, body = %d", m.Size, len(m.Body))
	}
}

func TestMultipleRecipients(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)
	carol := mail.MustParseAddress("carol@corp.example")

	if err := c.SendMail(alice, []mail.Address{bob, carol}, "Subject: multi rcpt\r\n\r\nbody"); err != nil {
		t.Fatal(err)
	}
	msgs := b.messages()
	if len(msgs) != 2 {
		t.Fatalf("delivered %d, want 2 (one per recipient)", len(msgs))
	}
	if msgs[0].Rcpt == msgs[1].Rcpt {
		t.Fatal("both deliveries to same recipient")
	}
	if msgs[0].ID != msgs[1].ID {
		t.Fatal("per-recipient clones must share the message ID")
	}
}

func TestEHLOExtensions(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := br.ReadString('\n'); err != nil { // greeting
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("EHLO client.example.com\r\n")); err != nil {
		t.Fatal(err)
	}
	advertised := map[string]bool{}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if len(line) < 4 || line[:3] != "250" {
			t.Fatalf("EHLO reply line %q", line)
		}
		name, _, _ := strings.Cut(strings.TrimSpace(line[4:]), " ")
		advertised[name] = true
		if line[3] == ' ' {
			break
		}
	}
	for _, ext := range []string{"SIZE", "PIPELINING"} {
		if !advertised[ext] {
			t.Errorf("%s not advertised: %v", ext, advertised)
		}
	}
}

func TestNullSender(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)
	if err := c.SendMail(mail.Null, []mail.Address{bob}, "Subject: DSN\r\n\r\nbounce"); err != nil {
		t.Fatal(err)
	}
	msgs := b.messages()
	if len(msgs) != 1 || !msgs[0].EnvelopeFrom.IsNull() {
		t.Fatalf("null sender mishandled: %+v", msgs)
	}
}

func TestRejectedSender(t *testing.T) {
	b := newBackend()
	b.rejectFrom[alice.Key()] = &Reply{550, "sender rejected"}
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)
	err := c.Mail(alice)
	if err == nil {
		t.Fatal("rejected sender accepted")
	}
	r, ok := err.(*Reply)
	if !ok || r.Code != 550 {
		t.Fatalf("err = %v, want 550 Reply", err)
	}
}

func TestRejectedRecipientDoesNotAbortTransaction(t *testing.T) {
	b := newBackend()
	ghost := mail.MustParseAddress("ghost@corp.example")
	b.rejectRcpt[ghost.Key()] = &Reply{550, "no such user"}
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)

	if err := c.Mail(alice); err != nil {
		t.Fatal(err)
	}
	if err := c.Rcpt(ghost); err == nil {
		t.Fatal("unknown recipient accepted")
	}
	// A valid recipient afterwards still works.
	if err := c.Rcpt(bob); err != nil {
		t.Fatalf("valid recipient after rejection: %v", err)
	}
	if err := c.Data("Subject: x\r\n\r\nhello"); err != nil {
		t.Fatal(err)
	}
	if len(b.messages()) != 1 {
		t.Fatal("message not delivered to surviving recipient")
	}
}

func TestMalformedAddressGets553(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)
	if err := c.Mail(alice); err != nil {
		t.Fatal(err)
	}
	_, err := c.cmd(250, "RCPT TO:<not an address>")
	r, ok := err.(*Reply)
	if !ok || r.Code != 553 {
		t.Fatalf("malformed rcpt reply = %v, want 553", err)
	}
}

func TestCommandSequencing(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// MAIL before HELO: 503.
	if _, err := c.cmd(250, "MAIL FROM:<a@b.example>"); err == nil {
		t.Fatal("MAIL before HELO accepted")
	}
	if err := c.Hello("x.example.com"); err != nil {
		t.Fatal(err)
	}
	// RCPT before MAIL: 503.
	if _, err := c.cmd(250, "RCPT TO:<bob@corp.example>"); err == nil {
		t.Fatal("RCPT before MAIL accepted")
	}
	// DATA with no recipients: 554.
	if err := c.Mail(alice); err != nil {
		t.Fatal(err)
	}
	_, err = c.cmd(354, "DATA")
	r, ok := err.(*Reply)
	if !ok || r.Code != 554 {
		t.Fatalf("DATA w/o rcpt = %v, want 554", err)
	}
	// Duplicate MAIL: 503.
	if err := c.Mail(alice); err == nil {
		t.Fatal("second MAIL accepted")
	}
}

func TestRSETClearsTransaction(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)
	if err := c.Mail(alice); err != nil {
		t.Fatal(err)
	}
	if err := c.Rcpt(bob); err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	// After RSET, MAIL is legal again.
	if err := c.Mail(alice); err != nil {
		t.Fatalf("MAIL after RSET: %v", err)
	}
}

func TestUnknownCommandAndNoopVrfy(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)
	if _, err := c.cmd(0, "FROBNICATE"); err != nil {
		t.Fatal(err)
	}
	r, _ := c.cmd(0, "NOOP")
	if r.Code != 250 {
		t.Fatalf("NOOP = %d", r.Code)
	}
	r, _ = c.cmd(0, "VRFY bob")
	if r.Code != 252 {
		t.Fatalf("VRFY = %d", r.Code)
	}
}

func TestDotStuffingRoundTrip(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)
	body := "Subject: dots\r\n\r\n.leading dot line\r\n..double\r\nnormal\r\n"
	if err := c.SendMail(alice, []mail.Address{bob}, body); err != nil {
		t.Fatal(err)
	}
	msgs := b.messages()
	if len(msgs) != 1 {
		t.Fatal("no delivery")
	}
	if !strings.Contains(msgs[0].Body, "\r\n.leading dot line\r\n") {
		t.Fatalf("dot-unstuffing failed:\n%q", msgs[0].Body)
	}
	if !strings.Contains(msgs[0].Body, "\r\n..double\r\n") {
		t.Fatalf("double-dot handling failed:\n%q", msgs[0].Body)
	}
}

func TestMessageTooLarge(t *testing.T) {
	b := newBackend()
	srv := NewServer(Config{Hostname: "mta", MaxMessageBytes: 100, ReadTimeout: 5 * time.Second}, b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()

	c := dialOK(t, l.Addr().String())
	big := strings.Repeat("a", 50)
	err = c.SendMail(alice, []mail.Address{bob}, big+"\r\n"+big+"\r\n"+big)
	r, ok := err.(*Reply)
	if !ok || r.Code != 552 {
		t.Fatalf("oversize err = %v, want 552", err)
	}
	// Session survives: new transaction works.
	if err := c.SendMail(alice, []mail.Address{bob}, "Subject: ok\r\n\r\nsmall"); err != nil {
		t.Fatalf("session dead after 552: %v", err)
	}
	if len(b.messages()) != 1 {
		t.Fatal("small follow-up not delivered")
	}
}

func TestSizeParameterRejectedEarly(t *testing.T) {
	b := newBackend()
	srv := NewServer(Config{Hostname: "mta", MaxMessageBytes: 1000, ReadTimeout: 5 * time.Second}, b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()
	c := dialOK(t, l.Addr().String())
	_, err = c.cmd(250, "MAIL FROM:<alice@example.com> SIZE=50000")
	r, ok := err.(*Reply)
	if !ok || r.Code != 552 {
		t.Fatalf("SIZE reject = %v, want 552", err)
	}
}

func TestDeliverFailureReported(t *testing.T) {
	b := newBackend()
	b.deliverErr = &Reply{451, "try again later"}
	addr, _ := startServer(t, b)
	c := dialOK(t, addr)
	err := c.SendMail(alice, []mail.Address{bob}, "Subject: x\r\n\r\nbody")
	r, ok := err.(*Reply)
	if !ok || r.Code != 451 || !r.Temporary() {
		t.Fatalf("deliver failure = %v, want temporary 451", err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Hello("x.example.com"); err != nil {
				t.Error(err)
				return
			}
			if err := c.SendMail(alice, []mail.Address{bob}, "Subject: c\r\n\r\nbody"); err != nil {
				t.Error(err)
			}
			c.Quit() //nolint:errcheck
		}()
	}
	wg.Wait()
	if len(b.messages()) != 8 {
		t.Fatalf("delivered %d, want 8", len(b.messages()))
	}
}

func TestHELOFallback(t *testing.T) {
	b := newBackend()
	addr, _ := startServer(t, b)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Plain HELO must work too.
	if _, err := c.cmd(250, "HELO legacy.example.com"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail(alice); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseStopsServing(t *testing.T) {
	b := newBackend()
	addr, srv := startServer(t, b)
	srv.Close()
	time.Sleep(10 * time.Millisecond)
	if _, err := Dial(addr, 300*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

func TestStripDisplayName(t *testing.T) {
	cases := map[string]string{
		"Alice Doe <alice@example.com>": "<alice@example.com>",
		"<alice@example.com>":           "<alice@example.com>",
		"alice@example.com":             "alice@example.com",
	}
	for in, want := range cases {
		if got := stripDisplayName(in); got != want {
			t.Errorf("stripDisplayName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBuildMessage(t *testing.T) {
	body := BuildMessage(alice, bob, "greetings", "hello")
	for _, want := range []string{"From: alice@example.com", "To: bob@corp.example", "Subject: greetings", "hello"} {
		if !strings.Contains(body, want) {
			t.Fatalf("BuildMessage missing %q:\n%s", want, body)
		}
	}
}

// BenchmarkTransactionOverTCP is the quick look at the session's cost per
// transaction: body size × how the client talks. lockstep is smtp.Client
// (a write and a wait per command); pipelined is what a production MTA and
// crbench's load generator do — MAIL+RCPT+DATA in one write with SIZE=,
// then the body in one write.
func BenchmarkTransactionOverTCP(b *testing.B) {
	for _, kb := range []int{1, 16} {
		text := strings.Repeat(strings.Repeat("x", 76)+"\r\n", kb<<10/78)
		body := BuildMessage(alice, bob, "bench", text)
		b.Run(fmt.Sprintf("%dKB/lockstep", kb), func(b *testing.B) {
			c := benchDial(b)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.SendMail(alice, []mail.Address{bob}, body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%dKB/pipelined", kb), func(b *testing.B) {
			c := benchDial(b)
			wire := []byte(body + ".\r\n")
			envelope := []byte(fmt.Sprintf("MAIL FROM:<%s> SIZE=%d\r\nRCPT TO:<%s>\r\nDATA\r\n", alice, len(wire), bob))
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.conn.Write(envelope); err != nil {
					b.Fatal(err)
				}
				for _, want := range []int{250, 250, 354} {
					if _, err := c.readReply(want); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := c.conn.Write(wire); err != nil {
					b.Fatal(err)
				}
				if _, err := c.readReply(250); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDial starts a server that accepts and drops everything and returns
// a client past EHLO.
func benchDial(b *testing.B) *Client {
	addr, _ := startServer(b, discardBackend{})
	return dialOK(b, addr)
}

type discardBackend struct{}

func (discardBackend) ValidateSender(mail.Address) *Reply    { return nil }
func (discardBackend) ValidateRcpt(_, _ mail.Address) *Reply { return nil }
func (discardBackend) Deliver(*mail.Message) *Reply          { return nil }

func TestShutdownWaitsForInFlightSession(t *testing.T) {
	b := newBackend()
	addr, srv := startServer(t, b)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("client.example.com"); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()
	// The listener closes promptly: new connections are refused while
	// the in-flight session keeps working.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c2, err := Dial(addr, 200*time.Millisecond)
		if err != nil {
			break
		}
		// Raced an accept that got the 421 greeting; try again.
		c2.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The in-flight session completes a full transaction mid-drain.
	from := mail.MustParseAddress("alice@example.com")
	to := mail.MustParseAddress("bob@corp.example")
	if err := c.SendMail(from, []mail.Address{to}, BuildMessage(from, to, "subject", "body")); err != nil {
		t.Fatalf("in-flight transaction failed during drain: %v", err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	if clean := <-done; !clean {
		t.Fatal("Shutdown force-closed despite session ending")
	}
	if got := len(b.messages()); got != 1 {
		t.Fatalf("delivered = %d, want 1", got)
	}
}

func TestShutdownForceClosesAfterTimeout(t *testing.T) {
	b := newBackend()
	addr, srv := startServer(t, b)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("client.example.com"); err != nil {
		t.Fatal(err)
	}
	// The session idles past the timeout: Shutdown reports force-close.
	if clean := srv.Shutdown(100 * time.Millisecond); clean {
		t.Fatal("Shutdown reported clean drain with a lingering session")
	}
}
