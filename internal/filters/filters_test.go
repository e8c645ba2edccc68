package filters

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/mail"
	"repro/internal/rbl"
	"repro/internal/spf"
)

var t0 = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

func msgFrom(ip, fromAddr string) *mail.Message {
	m := &mail.Message{
		ID:       mail.NewID("t"),
		Rcpt:     mail.MustParseAddress("user@corp.example"),
		ClientIP: ip,
		Subject:  "test message",
	}
	if fromAddr != "" {
		m.EnvelopeFrom = mail.MustParseAddress(fromAddr)
	}
	return m
}

func TestAntivirus(t *testing.T) {
	av := NewAntivirus("BADSIG-123")
	clean := msgFrom("192.0.2.1", "a@b.example")
	clean.Body = "hello, just a normal message"
	if r := av.Check(clean); r.Verdict != Pass {
		t.Fatalf("clean message dropped: %+v", r)
	}
	infected := msgFrom("192.0.2.1", "a@b.example")
	infected.Body = "please open the attachment BADSIG-123 now"
	if r := av.Check(infected); r.Verdict != Drop {
		t.Fatal("infected message passed")
	}
	eicar := msgFrom("192.0.2.1", "a@b.example")
	eicar.Body = "prefix " + EICAR + " suffix"
	if r := av.Check(eicar); r.Verdict != Drop {
		t.Fatal("EICAR message passed")
	}
}

func TestReverseDNS(t *testing.T) {
	dns := dnssim.NewServer()
	dns.AddPTR("192.0.2.10", "mail.good.example")
	f := NewReverseDNS(dns)
	if r := f.Check(msgFrom("192.0.2.10", "a@b.example")); r.Verdict != Pass {
		t.Fatalf("host with PTR dropped: %+v", r)
	}
	if r := f.Check(msgFrom("198.51.100.66", "a@b.example")); r.Verdict != Drop {
		t.Fatal("host without PTR passed")
	}
	if r := f.Check(msgFrom("", "a@b.example")); r.Verdict != Drop {
		t.Fatal("message without client IP passed")
	}
}

func TestRBLFilter(t *testing.T) {
	clk := clock.NewSim(t0)
	p := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clk)
	p.AddStatic("203.0.113.13")
	f := NewRBL(p)
	if r := f.Check(msgFrom("203.0.113.13", "a@b.example")); r.Verdict != Drop {
		t.Fatal("listed IP passed")
	}
	if r := f.Check(msgFrom("203.0.113.14", "a@b.example")); r.Verdict != Pass {
		t.Fatal("unlisted IP dropped")
	}
}

func TestSPFFilter(t *testing.T) {
	dns := dnssim.NewServer()
	dns.AddTXT("strict.example", "v=spf1 ip4:192.0.2.0/24 -all")
	dns.AddTXT("soft.example", "v=spf1 ~all")
	f := NewSPF(spf.New(dns))

	// Hard fail drops.
	if r := f.Check(msgFrom("198.51.100.1", "x@strict.example")); r.Verdict != Drop {
		t.Fatal("SPF Fail passed")
	}
	// Pass passes.
	if r := f.Check(msgFrom("192.0.2.5", "x@strict.example")); r.Verdict != Pass {
		t.Fatal("SPF Pass dropped")
	}
	// SoftFail passes (conservative deployment).
	if r := f.Check(msgFrom("198.51.100.1", "x@soft.example")); r.Verdict != Pass {
		t.Fatal("SoftFail dropped")
	}
	// No policy passes.
	if r := f.Check(msgFrom("198.51.100.1", "x@nopolicy.example")); r.Verdict != Pass {
		t.Fatal("None dropped")
	}
	// Null sender (bounce) passes without a lookup.
	bounce := msgFrom("198.51.100.1", "")
	if r := f.Check(bounce); r.Verdict != Pass {
		t.Fatal("null sender dropped")
	}
}

func buildChain(t *testing.T) (*Chain, *dnssim.Server, *rbl.Provider) {
	t.Helper()
	dns := dnssim.NewServer()
	clk := clock.NewSim(t0)
	p := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clk)
	chain := NewChain(NewAntivirus(), NewReverseDNS(dns), NewRBL(p))
	return chain, dns, p
}

func TestChainOrderShortCircuit(t *testing.T) {
	chain, dns, p := buildChain(t)
	dns.AddPTR("192.0.2.1", "mail.ok.example")
	p.AddStatic("192.0.2.1")

	// Virus + listed IP: antivirus is first, so it must take the drop.
	m := msgFrom("192.0.2.1", "a@b.example")
	m.Body = EICAR
	if name := chain.Run(m).DroppedBy; name != "antivirus" {
		t.Fatalf("dropped by %q, want antivirus (chain order)", name)
	}
	// Clean body, listed IP, PTR present: rbl takes it.
	m2 := msgFrom("192.0.2.1", "a@b.example")
	if name2 := chain.Run(m2).DroppedBy; name2 != "rbl" {
		t.Fatalf("dropped by %q, want rbl", name2)
	}
}

func TestChainPassAndStats(t *testing.T) {
	chain, dns, _ := buildChain(t)
	dns.AddPTR("192.0.2.2", "mail.fine.example")

	for i := 0; i < 3; i++ {
		o := chain.Run(msgFrom("192.0.2.2", "a@b.example"))
		if o.Result.Verdict != Pass || o.DroppedBy != "" || len(o.Degraded) != 0 {
			t.Fatalf("clean message: %+v", o)
		}
	}
	// No PTR: the reverse-DNS filter drops, with its reason.
	o := chain.Run(msgFrom("198.51.100.9", "a@b.example"))
	if o.Result.Verdict != Drop || o.DroppedBy != "reverse-dns" || o.Result.Reason != "no PTR for 198.51.100.9" {
		t.Fatalf("unresolvable client: %+v", o)
	}
}

func TestEmptyChainPassesEverything(t *testing.T) {
	chain := NewChain()
	o := chain.Run(msgFrom("1.2.3.4", "a@b.example"))
	if o.Result.Verdict != Pass || o.DroppedBy != "" {
		t.Fatal("empty chain dropped a message")
	}
}

func TestChainConcurrent(t *testing.T) {
	chain, dns, p := buildChain(t)
	dns.AddPTR("192.0.2.3", "mail.x.example")
	dns.AddPTR("192.0.2.4", "mail.y.example")
	p.AddStatic("192.0.2.4")
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		ip, want := "192.0.2.3", ""
		if i%2 == 1 {
			ip, want = "192.0.2.4", "rbl"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := chain.Run(msgFrom(ip, "a@b.example")).DroppedBy; got != want {
				t.Errorf("%s dropped by %q, want %q", ip, got, want)
			}
		}()
	}
	wg.Wait()
}

func TestVerdictString(t *testing.T) {
	if Pass.String() != "pass" || Drop.String() != "drop" {
		t.Fatal("Verdict.String mismatch")
	}
}

func BenchmarkChainCleanMessage(b *testing.B) {
	dns := dnssim.NewServer()
	dns.AddPTR("192.0.2.2", "mail.fine.example")
	clk := clock.NewSim(t0)
	p := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clk)
	chain := NewChain(NewAntivirus(), NewReverseDNS(dns), NewRBL(p))
	m := msgFrom("192.0.2.2", "a@b.example")
	m.Body = "an ordinary message body with a reasonable amount of text in it"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain.Run(m)
	}
}
