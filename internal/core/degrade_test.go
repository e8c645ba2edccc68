package core

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/faults/seam"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/rbl"
	"repro/internal/whitelist"
)

// dnsTimeouts times out a share p of resolver lookups (p 0: all).
func dnsTimeouts(p float64) *faults.Plan {
	return &faults.Plan{Rules: []faults.Rule{
		{Target: "dns", Kind: faults.KindTimeout, Probability: p},
	}}
}

func TestDNSDegradeFailOpenAccepts(t *testing.T) {
	e := newFaultedEnv(t, false, dnsTimeouts(0), 1)
	var events []maillog.Event
	e.eng.SetEventSink(func(ev maillog.Event) { events = append(events, ev) })

	m := e.goodMsg("alice@example.com", "bob@corp.example")
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict under resolver blackout = %v, want Accepted (fail-open)", r)
	}
	mt := e.eng.Metrics()
	if mt.MTADegradedAccept != 1 || mt.MTADegradedDrop != 0 {
		t.Fatalf("degraded counters = accept %d / drop %d", mt.MTADegradedAccept, mt.MTADegradedDrop)
	}
	found := false
	for _, ev := range events {
		if ev.Kind == maillog.KindDegraded && ev.Field("component") == "dns-resolve" {
			found = true
			if ev.Field("mode") != "fail-open" || ev.Field("action") != "accept" {
				t.Fatalf("degraded event fields = %s", ev.AppendFormat(nil))
			}
		}
	}
	if !found {
		t.Fatal("no degraded maillog event emitted")
	}
}

func TestDNSDegradeFailClosedDrops(t *testing.T) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	wl := whitelist.NewStore(clk)
	eng := New(Config{
		Name:             "corp",
		Domains:          []string{"corp.example"},
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
		DNSDegrade:       filters.FailClosed,
	}, clk, seam.Resolver(dns, faults.New(dnsTimeouts(0), 1, clk)), nil, wl, nil)
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	dns.RegisterMailDomain("example.com", "192.0.2.10")

	m := &mail.Message{
		ID:           mail.NewID("m"),
		EnvelopeFrom: mail.MustParseAddress("alice@example.com"),
		Rcpt:         mail.MustParseAddress("bob@corp.example"),
		Subject:      "subject",
		Size:         1000,
		ClientIP:     "192.0.2.10",
		Received:     clk.Now(),
	}
	if r := eng.Receive(m); r != Unresolvable {
		t.Fatalf("verdict = %v, want Unresolvable (fail-closed)", r)
	}
	mt := eng.Metrics()
	if mt.MTADegradedDrop != 1 {
		t.Fatalf("MTADegradedDrop = %d", mt.MTADegradedDrop)
	}
	if mt.MTADropped[Unresolvable] != 1 {
		t.Fatalf("MTADropped = %v", mt.MTADropped)
	}
}

func TestDNSRetriesAbsorbTransientFault(t *testing.T) {
	// Engine retries are immediate, so a fault must clear between two
	// attempts of one lookup: a probabilistic "dns" timeout through the
	// resolver seam, low enough that 3 attempts almost surely pass.
	e := newFaultedEnv(t, false, dnsTimeouts(0.5), 3)
	accepted, degraded := 0, 0
	for i := 0; i < 50; i++ {
		m := e.goodMsg("alice@example.com", "bob@corp.example")
		if r := e.eng.Receive(m); r == Accepted {
			accepted++
		}
	}
	degraded = int(e.eng.Metrics().MTADegradedAccept)
	if accepted != 50 {
		t.Fatalf("accepted %d/50 under 50%% flaky DNS (fail-open should accept all)", accepted)
	}
	// With 3 attempts at p=0.5 the expected degradation rate is 12.5%;
	// most messages resolve within the retry budget.
	if degraded >= 25 {
		t.Fatalf("retries absorbed nothing: %d/50 degraded", degraded)
	}
}

// TestMetricsSnapshotConcurrentWithDegradedWrites guards the Metrics()
// deep copy: the snapshot's FilterDegraded map must not alias the live
// map, or an HTTP goroutine iterating it races with Receive()
// incrementing it (caught under -race).
func TestMetricsSnapshotConcurrentWithDegradedWrites(t *testing.T) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	prov := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clk)
	down := seam.RBL(prov, faults.New(&faults.Plan{Rules: []faults.Rule{
		{Target: "rbl:*", Kind: faults.KindOutage},
	}}, 1, clk))
	chain := filters.NewChain(
		filters.Harden(filters.NewRBL(down), filters.FailOpen, filters.HardenOpts{}),
	)
	eng := New(Config{
		Name:             "corp",
		Domains:          []string{"corp.example"},
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, chain, whitelist.NewStore(clk), func(OutboundChallenge) {})
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	dns.RegisterMailDomain("example.com", "192.0.2.10")

	const n = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			m := &mail.Message{
				ID:           mail.NewID("m"),
				EnvelopeFrom: mail.MustParseAddress("alice@example.com"),
				Rcpt:         mail.MustParseAddress("bob@corp.example"),
				Subject:      "subject",
				Size:         1000,
				ClientIP:     "192.0.2.10",
				Received:     clk.Now(),
			}
			eng.Receive(m)
		}
	}()
	for {
		select {
		case <-done:
			if got := eng.Metrics().FilterDegraded["rbl"]; got != n {
				t.Fatalf("FilterDegraded[rbl] = %d, want %d", got, n)
			}
			return
		default:
			_ = eng.Metrics().TotalFilterDegraded()
		}
	}
}
