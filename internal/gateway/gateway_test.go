package gateway

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/smtp"
	"repro/internal/whitelist"
)

// liveDeployment wires a full CR stack behind a TCP SMTP server.
func liveDeployment(t *testing.T) (addr string, eng *core.Engine, dns *dnssim.Server, challenges *[]core.OutboundChallenge) {
	t.Helper()
	clk := clock.Real{}
	dns = dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "127.0.0.1") // test clients dial from loopback
	dns.AddPTR("127.0.0.1", "localhost.example.com")

	wl := whitelist.NewStore(clk)
	chain := filters.NewChain(filters.NewAntivirus(), filters.NewReverseDNS(dns))
	var sent []core.OutboundChallenge
	eng = core.New(core.Config{
		Name:             "live",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, chain, wl, func(ch core.OutboundChallenge) { sent = append(sent, ch) })
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))

	srv := smtp.NewServer(smtp.Config{Hostname: "mta.corp.example", ReadTimeout: 5 * time.Second}, New(eng))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(srv.Close)
	return l.Addr().String(), eng, dns, &sent
}

func dial(t *testing.T, addr string) *smtp.Client {
	t.Helper()
	c, err := smtp.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Hello("client.example.com"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEndToEndGrayChallenge(t *testing.T) {
	addr, eng, _, sent := liveDeployment(t)
	c := dial(t, addr)
	alice := mail.MustParseAddress("alice@example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	body := smtp.BuildMessage(alice, bob, "hello from a new correspondent today", "hi")
	if err := c.SendMail(alice, []mail.Address{bob}, body); err != nil {
		t.Fatal(err)
	}
	if len(*sent) != 1 {
		t.Fatalf("challenges = %d, want 1", len(*sent))
	}
	if eng.QuarantineLen() != 1 {
		t.Fatal("message not quarantined")
	}
	// Solve it through the captcha service: delivery completes.
	svc := eng.Captcha()
	tok := (*sent)[0].Token
	ans, err := svc.Answer(tok)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Solve(tok, ans); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Delivered[core.ViaChallenge]; got != 1 {
		t.Fatalf("delivered = %d", got)
	}
}

func TestEndToEndWhitelisted(t *testing.T) {
	addr, eng, _, sent := liveDeployment(t)
	alice := mail.MustParseAddress("alice@example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	eng.AddManualWhitelist(bob, alice)

	c := dial(t, addr)
	if err := c.SendMail(alice, []mail.Address{bob}, smtp.BuildMessage(alice, bob, "ping", "x")); err != nil {
		t.Fatal(err)
	}
	if len(*sent) != 0 {
		t.Fatal("whitelisted sender was challenged")
	}
	if got := eng.Metrics().Delivered[core.ViaWhitelist]; got != 1 {
		t.Fatalf("instant deliveries = %d", got)
	}
}

func TestRcptRejectionCodes(t *testing.T) {
	addr, _, _, _ := liveDeployment(t)
	c := dial(t, addr)
	alice := mail.MustParseAddress("alice@example.com")
	if err := c.Mail(alice); err != nil {
		t.Fatal(err)
	}
	// Unknown local user: 550.
	err := c.Rcpt(mail.MustParseAddress("ghost@corp.example"))
	if r, ok := err.(*smtp.Reply); !ok || r.Code != 550 || !strings.Contains(r.Text, "no such user") {
		t.Fatalf("unknown rcpt err = %v", err)
	}
	// Foreign domain: 554 relay denied.
	err = c.Rcpt(mail.MustParseAddress("x@elsewhere.example"))
	if r, ok := err.(*smtp.Reply); !ok || r.Code != 554 {
		t.Fatalf("relay err = %v", err)
	}
}

func TestSenderRejectionCodes(t *testing.T) {
	addr, eng, _, _ := liveDeployment(t)
	banned := mail.MustParseAddress("banned@example.com")
	eng.RejectSender(banned)

	c := dial(t, addr)
	err := c.Mail(banned)
	if r, ok := err.(*smtp.Reply); !ok || r.Code != 550 {
		t.Fatalf("banned sender err = %v", err)
	}
	// Unresolvable sender domain: 450 (temporary, like real MTAs).
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	err = c.Mail(mail.MustParseAddress("x@unresolvable.example"))
	if r, ok := err.(*smtp.Reply); !ok || r.Code != 450 || !r.Temporary() {
		t.Fatalf("unresolvable sender err = %v", err)
	}
}

func TestFilterDropIsSilent(t *testing.T) {
	// A message dropped by the filter chain is accepted at SMTP level
	// (the product never bounces filter-dropped mail — that would be
	// backscatter) but goes nowhere.
	addr, eng, dns, sent := liveDeployment(t)
	dns.RegisterMailDomain("shady.example", "203.0.113.7")
	// No PTR for 127.0.0.1? It has one (registered in setup). Use a
	// virus body instead: antivirus drops it.
	c := dial(t, addr)
	evil := mail.MustParseAddress("evil@shady.example")
	bob := mail.MustParseAddress("bob@corp.example")
	body := smtp.BuildMessage(evil, bob, "totally legitimate invoice attached here for you", filters.EICAR)
	if err := c.SendMail(evil, []mail.Address{bob}, body); err != nil {
		t.Fatalf("filter-dropped message must still get 250: %v", err)
	}
	if len(*sent) != 0 || eng.QuarantineLen() != 0 {
		t.Fatal("virus message was challenged or quarantined")
	}
	if eng.Metrics().FilterDropped["antivirus"] != 1 {
		t.Fatal("antivirus drop not counted")
	}
}
