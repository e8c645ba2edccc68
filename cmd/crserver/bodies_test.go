package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/adminui"
	"repro/internal/bodystore"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/gateway"
	"repro/internal/mail"
	"repro/internal/mailbox"
	"repro/internal/smtp"
	"repro/internal/whitelist"
)

// TestMboxBodiesAcrossOneConnection is the body path end to end, wired
// as crserver wires it: one SMTP connection carries gray A (over 20 KB),
// white B and gray C, so each body is read into the buffer the one before
// it used. A is authorized from the digest and C's challenge is solved
// over HTTP; /mbox must then return all three bodies byte for byte, read
// from the disk body store.
func TestMboxBodiesAcrossOneConnection(t *testing.T) {
	clk := clock.Real{}
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.1")
	dns.RegisterMailDomain("example.org", "192.0.2.1")
	bob := mail.MustParseAddress("bob@corp.example")

	bodies := bodystore.New(t.TempDir())
	var challenges []core.OutboundChallenge
	eng := core.New(core.Config{
		Name:             "bodies-test",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
		Bodies:           bodies,
	}, clk, dns, nil, whitelist.NewStore(clk), func(ch core.OutboundChallenge) {
		challenges = append(challenges, ch)
	})
	eng.AddUser(bob)
	inboxes := mailbox.NewStore()
	inboxes.SetBodies(bodies)
	eng.SetInboxSink(inboxes.Sink())
	ui := adminui.New(eng)
	ui.SetBodies(bodies)
	web := httptest.NewServer(webMux(eng, ui, inboxes))
	defer web.Close()

	srv := smtp.NewServer(smtp.Config{Hostname: "mta.corp.example", ReadTimeout: 5 * time.Second}, gateway.New(eng))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()
	c, err := smtp.Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("client.example.com"); err != nil {
		t.Fatal(err)
	}

	alice := mail.MustParseAddress("alice@example.com")
	friend := mail.MustParseAddress("friend@example.com")
	carol := mail.MustParseAddress("carol@example.org")
	eng.AddManualWhitelist(bob, friend)
	var long strings.Builder
	for i := 0; long.Len() < 24<<10; i++ {
		// Leading dots exercise the stuffing on both sides.
		fmt.Fprintf(&long, ".line %05d of the long gray message, with a leading dot\r\n", i)
	}
	// Client.Data ends the last line with CRLF, so what the server
	// stores is each body plus CRLF.
	bodyA := smtp.BuildMessage(alice, bob, "the long one", long.String()+"last line")
	bodyB := smtp.BuildMessage(friend, bob, "white", "short white body")
	bodyC := smtp.BuildMessage(carol, bob, "gray again", "a gray body of middling length\r\n"+strings.Repeat("z", 3000))
	for _, m := range []struct {
		from mail.Address
		body string
	}{{alice, bodyA}, {friend, bodyB}, {carol, bodyC}} {
		if err := c.SendMail(m.from, []mail.Address{bob}, m.body); err != nil {
			t.Fatal(err)
		}
	}
	if len(challenges) != 2 || challenges[0].To != alice || challenges[1].To != carol {
		t.Fatalf("challenges = %+v, want one to alice and one to carol", challenges)
	}

	post := func(u string, form url.Values) {
		t.Helper()
		resp, err := http.PostForm(u, form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			t.Fatalf("POST %s: %s", u, resp.Status)
		}
	}
	get := func(u string) string {
		t.Helper()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	// A from the digest, then C through its challenge page.
	post(web.URL+"/digest/"+bob.String()+"/authorize?msg="+url.QueryEscape(challenges[0].MsgID), nil)
	chURL := web.URL + "/challenge/" + challenges[1].Token
	q := regexp.MustCompile(`What is (\d+) plus (\d+)\?`).FindStringSubmatch(get(chURL))
	if q == nil {
		t.Fatal("no puzzle on the challenge page")
	}
	x, _ := strconv.Atoi(q[1])
	y, _ := strconv.Atoi(q[2])
	post(chURL, url.Values{"answer": {strconv.Itoa(x + y)}})

	if metrics := get(web.URL + "/metrics"); !strings.Contains(metrics, "body_store_live 3\n") ||
		!strings.Contains(metrics, "body_store_errors 0\n") {
		t.Fatalf("/metrics does not show the three bodies in the store:\n%s", metrics)
	}
	msgs := splitMbox(get(web.URL + "/mbox/" + bob.String()))
	want := []string{bodyB, bodyA, bodyC} // delivery order
	if len(msgs) != len(want) {
		t.Fatalf("/mbox holds %d messages, want %d", len(msgs), len(want))
	}
	for i, m := range msgs {
		_, body, ok := strings.Cut(m, "\n\n")
		// WriteMbox turns CRLF into LF and ends each message with an
		// empty line.
		if w := strings.ReplaceAll(want[i]+"\r\n", "\r\n", "\n") + "\n\n"; !ok || body != w {
			t.Fatalf("message %d of /mbox: body of %d bytes, want %d bytes", i, len(body), len(w))
		}
	}
}

// splitMbox cuts an mbox at its "From " separator lines.
func splitMbox(mbox string) []string {
	var msgs []string
	for mbox != "" {
		i := strings.Index(mbox, "\nFrom ")
		if i < 0 {
			return append(msgs, mbox)
		}
		msgs = append(msgs, mbox[:i+1])
		mbox = mbox[i+1:]
	}
	return msgs
}
