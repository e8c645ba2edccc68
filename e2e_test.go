// End-to-end system test: the full production composition over real
// sockets. One CR installation (SMTP MTA-IN + challenge web server +
// digest UI + outbound queue + mailbox + decision log + persistence) and
// one external mail server (the "Internet"), driven the way a real
// sender and a real user would drive them:
//
//	sender --TCP/SMTP--> MTA-IN --> engine --> quarantine
//	                         engine --> outbound queue --TCP/SMTP--> sender's MX
//	sender --HTTP--> challenge page --> solve
//	engine --> mailbox (mbox export over HTTP-less API)
//	user  --HTTP--> digest UI for the second message
//	operator --> state snapshot --> fresh engine remembers the whitelist
//	analyst --> decision log --> same stats as the engine counters
package repro_test

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/gateway"
	"repro/internal/logscan"
	"repro/internal/mail"
	"repro/internal/mailbox"
	"repro/internal/maillog"
	"repro/internal/outbound"
	"repro/internal/reputation"
	"repro/internal/smtp"
	"repro/internal/store"
	"repro/internal/whitelist"
)

// remoteMX is the sender side's mail server: it accepts challenges
// addressed to alice and records them.
type remoteMX struct {
	mu       sync.Mutex
	accepted []*mail.Message
}

func (r *remoteMX) ValidateSender(mail.Address) *smtp.Reply { return nil }
func (r *remoteMX) ValidateRcpt(_, rcpt mail.Address) *smtp.Reply {
	if rcpt.Key() != "alice@example.com" {
		return &smtp.Reply{Code: 550, Text: "no such user"}
	}
	return nil
}
func (r *remoteMX) Deliver(m *mail.Message) *smtp.Reply {
	kept := *m
	kept.Body = strings.Clone(m.Body) // the body is borrowed
	r.mu.Lock()
	r.accepted = append(r.accepted, &kept)
	r.mu.Unlock()
	return nil
}
func (r *remoteMX) inbox() []*mail.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*mail.Message, len(r.accepted))
	copy(out, r.accepted)
	return out
}

func TestEndToEndFullDeployment(t *testing.T) {
	clk := clock.Real{}
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "127.0.0.1")
	dns.AddPTR("127.0.0.1", "localhost.example.com")

	// --- The sender's MX (where challenges get delivered). ---
	alice := mail.MustParseAddress("alice@example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	mx := &remoteMX{}
	mxSrv := smtp.NewServer(smtp.Config{Hostname: "mx.example.com", ReadTimeout: 5 * time.Second}, mx)
	mxLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go mxSrv.Serve(mxLn) //nolint:errcheck
	defer mxSrv.Close()

	// --- The CR installation. ---
	var logBuf strings.Builder
	logW := maillog.NewWriter(&logBuf)

	wl := whitelist.NewStore(clk)
	queue := outbound.NewQueue(outbound.Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(mxLn.Addr().String(), 2*time.Second) },
		HeloDomain: "corp.example",
	})
	eng := core.New(core.Config{
		Name:          "e2e",
		Domains:       []string{"corp.example"},
		ChallengeFrom: mail.MustParseAddress("challenge@corp.example"),
		// Base URL is set below once the web server has a port.
	}, clk, dns, filters.NewChain(filters.NewAntivirus(), filters.NewReverseDNS(dns)), wl, queue.Sender())
	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	eng.SetReputation(rep)
	eng.SetEventSink(logW.Write)
	eng.AddUser(bob)
	inboxes := mailbox.NewStore()
	eng.SetInboxSink(inboxes.Sink())

	webSrv := httptest.NewServer(eng.Captcha().Handler())
	defer webSrv.Close()

	mtaSrv := smtp.NewServer(smtp.Config{Hostname: "mta.corp.example", ReadTimeout: 5 * time.Second}, gateway.New(eng))
	mtaLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go mtaSrv.Serve(mtaLn) //nolint:errcheck
	defer mtaSrv.Close()

	// --- 1. Alice sends bob a message over real SMTP. ---
	client, err := smtp.Dial(mtaLn.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Hello("mx.example.com"); err != nil {
		t.Fatal(err)
	}
	body := smtp.BuildMessage(alice, bob, "quarterly report draft for your review", "see attached")
	if err := client.SendMail(alice, []mail.Address{bob}, body); err != nil {
		t.Fatal(err)
	}
	if eng.QuarantineLen() != 1 {
		t.Fatal("message not quarantined")
	}

	// --- 2. The outbound queue delivers the challenge to alice's MX. ---
	if n, err := queue.Flush(); err != nil || n != 1 {
		t.Fatalf("queue flush = %d, %v", n, err)
	}
	challenges := mx.inbox()
	if len(challenges) != 1 {
		t.Fatalf("challenge emails at MX = %d", len(challenges))
	}
	chMail := challenges[0]
	if chMail.Rcpt != alice || chMail.EnvelopeFrom.String() != "challenge@corp.example" {
		t.Fatalf("challenge envelope: %v -> %v", chMail.EnvelopeFrom, chMail.Rcpt)
	}

	// --- 3. Alice opens the URL from the challenge email and solves. ---
	tokRe := regexp.MustCompile(`X-CR-Token: (tok-[0-9a-f-]+)`)
	mTok := tokRe.FindStringSubmatch(chMail.Body)
	if mTok == nil {
		t.Fatalf("no token in challenge email:\n%s", chMail.Body)
	}
	chURL := webSrv.URL + "/challenge/" + mTok[1]
	resp, err := http.Get(chURL)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	q := regexp.MustCompile(`What is (\d+) plus (\d+)\?`).FindStringSubmatch(string(page))
	if q == nil {
		t.Fatalf("no puzzle:\n%s", page)
	}
	a, _ := strconv.Atoi(q[1])
	b2, _ := strconv.Atoi(q[2])
	resp, err = http.PostForm(chURL, url.Values{"answer": {strconv.Itoa(a + b2)}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d", resp.StatusCode)
	}

	// --- 4. The message is in bob's mailbox; alice is whitelisted. ---
	if n := len(inboxes.Inbox(bob)); n != 1 {
		t.Fatalf("bob's inbox = %d", n)
	}
	var mbox strings.Builder
	if err := inboxes.WriteMbox(&mbox, bob); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mbox.String(), "quarterly report draft") {
		t.Fatalf("mbox missing message:\n%s", mbox.String())
	}
	if !wl.IsWhite(bob, alice) {
		t.Fatal("alice not whitelisted")
	}

	// --- 5. Alice's next message is delivered instantly. ---
	if err := client.SendMail(alice, []mail.Address{bob},
		smtp.BuildMessage(alice, bob, "followup", "thanks!")); err != nil {
		t.Fatal(err)
	}
	if n := len(inboxes.Inbox(bob)); n != 2 {
		t.Fatalf("inbox after followup = %d", n)
	}

	// --- 6. Persistence: a fresh engine restored from a snapshot still
	// trusts alice — whitelist and reputation history both survive. ---
	var snap strings.Builder
	if err := store.Save(&snap, "e2e", store.Stores{Whitelist: wl, Reputation: rep}, 0, time.Now()); err != nil {
		t.Fatal(err)
	}
	wl2 := whitelist.NewStore(clk)
	rep2 := reputation.NewStore(reputation.DefaultConfig(), clk)
	if _, err := store.Load(strings.NewReader(snap.String()), store.Stores{Whitelist: wl2, Reputation: rep2}); err != nil {
		t.Fatal(err)
	}
	if !wl2.IsWhite(bob, alice) {
		t.Fatal("whitelist lost across snapshot restore")
	}
	if rep.Stats().Entries == 0 {
		t.Fatal("reputation store recorded nothing for alice")
	}
	// Counters restore bit-for-bit (Export reads raw stored state, so
	// the comparison is exact even on the real clock).
	ea, eb := rep.Export(), rep2.Export()
	if len(ea) == 0 || len(ea) != len(eb) {
		t.Fatalf("reputation entries: %d vs %d after restore", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Key != eb[i].Key || ea[i].Counts != eb[i].Counts || !ea[i].Last.Equal(eb[i].Last) {
			t.Fatalf("reputation entry drift across restore: %+v vs %+v", ea[i], eb[i])
		}
	}

	// --- 7. The decision log reconstructs the same statistics, via the
	// parallel scanner the measurement pipeline uses. ---
	if err := logW.Flush(); err != nil {
		t.Fatal(err)
	}
	agg, err := logscan.Scan(strings.NewReader(logBuf.String()), logscan.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	em := eng.Metrics()
	la := agg.Total()
	if la.Incoming != em.MTAIncoming || la.Challenges != em.ChallengesSent {
		t.Fatalf("log stats diverge: %+v vs %+v", la, em)
	}
	if la.WebSolves != 1 || la.Deliveries["challenge"] != 1 || la.Deliveries["whitelist"] != 1 {
		t.Fatalf("log events wrong: %+v", la)
	}
}
