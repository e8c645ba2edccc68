package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/faults/seam"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/rbl"
	"repro/internal/reputation"
	"repro/internal/whitelist"
)

var t0 = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

// env bundles a fully-wired engine for tests.
type env struct {
	clk     *clock.Sim
	dns     *dnssim.Server
	rblProv *rbl.Provider
	eng     *Engine
	sent    []OutboundChallenge
	inbox   []Delivery // what the inbox sink received
}

func newEnv(t *testing.T, openRelay bool) *env {
	t.Helper()
	return newFaultedEnv(t, openRelay, nil, 0)
}

// newFaultedEnv is newEnv with the engine and the reverse-DNS filter
// resolving through plan's "dns" seam (plan nil: the bare server).
func newFaultedEnv(t *testing.T, openRelay bool, plan *faults.Plan, seed int64) *env {
	t.Helper()
	e := &env{clk: clock.NewSim(t0), dns: dnssim.NewServer()}
	var set *faults.Set
	if plan != nil {
		set = faults.New(plan, seed, e.clk)
	}
	resolver := seam.Resolver(e.dns, set)
	e.rblProv = rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), e.clk)
	chain := filters.NewChain(
		filters.NewAntivirus(),
		filters.NewReverseDNS(resolver),
		filters.NewRBL(e.rblProv),
	)
	wl := whitelist.NewStore(e.clk)
	cfg := Config{
		Name:             "corp",
		Domains:          []string{"corp.example"},
		OpenRelay:        openRelay,
		RelayDomains:     []string{"relayed.example"},
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
		Seed:             7,
	}
	e.eng = New(cfg, e.clk, resolver, chain, wl, nil)
	e.eng.SetChallengeSender(func(ch OutboundChallenge) { e.sent = append(e.sent, ch) })
	e.eng.SetInboxSink(func(d Delivery, _ *mail.Message) { e.inbox = append(e.inbox, d) })
	e.eng.AddUser(mail.MustParseAddress("bob@corp.example"))

	// A well-behaved sender environment.
	e.dns.RegisterMailDomain("example.com", "192.0.2.10")
	return e
}

// goodMsg returns a message that passes every MTA-IN and filter check.
func (e *env) goodMsg(from, to string) *mail.Message {
	return &mail.Message{
		ID:           mail.NewID("m"),
		EnvelopeFrom: mail.MustParseAddress(from),
		Rcpt:         mail.MustParseAddress(to),
		Subject:      "a perfectly reasonable subject line here",
		Size:         4000,
		ClientIP:     "192.0.2.10",
		Received:     e.clk.Now(),
	}
}

func TestMTAInMalformed(t *testing.T) {
	e := newEnv(t, false)
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	m.Rcpt = mail.Address{} // unparsable recipient
	if r := e.eng.Receive(m); r != Malformed {
		t.Fatalf("verdict = %v, want Malformed", r)
	}
	if e.eng.Metrics().MTADropped[Malformed] != 1 {
		t.Fatal("malformed drop not counted")
	}
}

func TestMTAInUnresolvableDomain(t *testing.T) {
	e := newEnv(t, false)
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	m.EnvelopeFrom = mail.MustParseAddress("x@unresolvable.example")
	if r := e.eng.Receive(m); r != Unresolvable {
		t.Fatalf("verdict = %v, want Unresolvable", r)
	}
}

func TestMTAInNoRelay(t *testing.T) {
	e := newEnv(t, false)
	m := e.goodMsg("alice@example.com", "someone@elsewhere.example")
	if r := e.eng.Receive(m); r != NoRelay {
		t.Fatalf("verdict = %v, want NoRelay", r)
	}
}

func TestMTAInOpenRelayAcceptsRelayDomain(t *testing.T) {
	e := newEnv(t, true)
	// Any mailbox in a relayed domain is accepted without a user check.
	m := e.goodMsg("alice@example.com", "whoever@relayed.example")
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict = %v, want Accepted (open relay)", r)
	}
	// But a foreign domain is still refused.
	m2 := e.goodMsg("alice@example.com", "x@elsewhere.example")
	if r := e.eng.Receive(m2); r != NoRelay {
		t.Fatalf("verdict = %v, want NoRelay", r)
	}
}

func TestMTAInSenderRejected(t *testing.T) {
	e := newEnv(t, false)
	bad := mail.MustParseAddress("banned@example.com")
	e.eng.RejectSender(bad)
	m := e.goodMsg("banned@example.com", "bob@corp.example")
	if r := e.eng.Receive(m); r != SenderRejected {
		t.Fatalf("verdict = %v, want SenderRejected", r)
	}
}

func TestMTAInUnknownRecipient(t *testing.T) {
	e := newEnv(t, false)
	m := e.goodMsg("alice@example.com", "ghost@corp.example")
	if r := e.eng.Receive(m); r != UnknownRecipient {
		t.Fatalf("verdict = %v, want UnknownRecipient", r)
	}
}

func TestNullSenderPassesResolvabilityCheck(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	m.EnvelopeFrom = mail.Null
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("bounce verdict = %v, want Accepted", r)
	}
}

func TestDispatchWhite(t *testing.T) {
	e := newEnv(t, false)
	bob := mail.MustParseAddress("bob@corp.example")
	alice := mail.MustParseAddress("alice@example.com")
	e.eng.AddManualWhitelist(bob, alice)

	m := e.goodMsg("alice@example.com", "bob@corp.example")
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict = %v", r)
	}
	met := e.eng.Metrics()
	if met.SpoolWhite != 1 || met.Delivered[ViaWhitelist] != 1 {
		t.Fatalf("metrics = %+v", met)
	}
	ds := e.inbox
	if len(ds) != 1 || ds[0].Via != ViaWhitelist || ds[0].Delay() != 0 {
		t.Fatalf("deliveries = %+v", ds)
	}
	if len(e.sent) != 0 {
		t.Fatal("whitelisted mail triggered a challenge")
	}
}

func TestDispatchBlack(t *testing.T) {
	for _, tc := range []struct {
		name     string
		white    bool   // also whitelist the sender
		from, to string // the message's envelope
	}{
		{"blacklist only", false, "junk@example.com", "bob@corp.example"},
		{"on both lists, black wins", true, "junk@example.com", "bob@corp.example"},
		{"mixed case", false, "Junk@example.com", "BOB@corp.example"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, false)
			bob := mail.MustParseAddress("bob@corp.example")
			spammer := mail.MustParseAddress("junk@example.com")
			e.eng.Whitelists().AddBlack(bob, spammer)
			if tc.white {
				e.eng.Whitelists().AddWhite(bob, spammer, whitelist.SourceManual)
			}

			m := e.goodMsg(tc.from, tc.to)
			if r := e.eng.Receive(m); r != Accepted {
				t.Fatalf("verdict = %v", r)
			}
			met := e.eng.Metrics()
			if met.SpoolBlack != 1 || met.SpoolWhite != 0 || len(e.inbox) != 0 || e.eng.QuarantineLen() != 0 {
				t.Fatalf("blacklisted mail mishandled: %+v", met)
			}
		})
	}
}

func TestDispatchGrayChallenged(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict = %v", r)
	}
	met := e.eng.Metrics()
	if met.SpoolGray != 1 || met.ChallengesSent != 1 {
		t.Fatalf("metrics = %+v", met)
	}
	if len(e.sent) != 1 {
		t.Fatalf("challenges emitted = %d, want 1", len(e.sent))
	}
	ch := e.sent[0]
	if ch.To != m.EnvelopeFrom || ch.From.String() != "challenge@corp.example" {
		t.Fatalf("challenge routing wrong: %+v", ch)
	}
	if !strings.HasPrefix(ch.URL, "http://cr.corp.example/challenge/") {
		t.Fatalf("challenge URL = %q", ch.URL)
	}
	if e.eng.QuarantineLen() != 1 {
		t.Fatal("message not quarantined")
	}
}

func TestChallengeCarriesClientIP(t *testing.T) {
	// The measurement pipeline re-runs SPF over the challenged message's
	// client (Figure 12), so the challenge must carry it.
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.77", "relay.example.com")
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	m.ClientIP = "192.0.2.77"
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict = %v", r)
	}
	if len(e.sent) != 1 {
		t.Fatalf("challenges emitted = %d, want 1", len(e.sent))
	}
	if ch := e.sent[0]; ch.MsgID != m.ID || ch.ClientIP != m.ClientIP {
		t.Fatalf("challenge %s from client %q, want %s from %q", ch.MsgID, ch.ClientIP, m.ID, m.ClientIP)
	}
}

func TestGrayDroppedByFilters(t *testing.T) {
	e := newEnv(t, false)
	// No PTR for this client: reverse-DNS filter drops.
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	m.ClientIP = "203.0.113.66"
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict = %v", r)
	}
	met := e.eng.Metrics()
	if met.FilterDropped["reverse-dns"] != 1 || met.ChallengesSent != 0 {
		t.Fatalf("metrics = %+v", met)
	}
	if e.eng.QuarantineLen() != 0 {
		t.Fatal("filter-dropped message quarantined")
	}
}

func TestChallengeSolvedDeliversAndWhitelists(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	alice := mail.MustParseAddress("alice@example.com")

	m := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m)
	e.clk.Advance(12 * time.Minute)

	svc := e.eng.Captcha()
	tok := e.sent[0].Token
	ans, err := svc.Answer(tok)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Solve(tok, ans); err != nil {
		t.Fatal(err)
	}

	if !e.eng.Whitelists().IsWhite(bob, alice) {
		t.Fatal("solving the challenge did not whitelist the sender")
	}
	ds := e.inbox
	if len(ds) != 1 || ds[0].Via != ViaChallenge {
		t.Fatalf("deliveries = %+v", ds)
	}
	if ds[0].Delay() != 12*time.Minute {
		t.Fatalf("delivery delay = %v, want 12m", ds[0].Delay())
	}
	if e.eng.QuarantineLen() != 0 {
		t.Fatal("quarantine not emptied after solve")
	}

	// Next message from alice goes straight to the inbox.
	m2 := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m2)
	met := e.eng.Metrics()
	if met.SpoolWhite != 1 || met.ChallengesSent != 1 {
		t.Fatalf("second message not whitelisted: %+v", met)
	}
}

func TestAuthorizeFromDigest(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	alice := mail.MustParseAddress("alice@example.com")

	m := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m)
	e.clk.Advance(26 * time.Hour)

	pending := e.eng.PendingForUser(bob)
	if len(pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(pending))
	}
	if err := e.eng.AuthorizeFromDigest(bob, pending[0].MsgID); err != nil {
		t.Fatal(err)
	}
	if !e.eng.Whitelists().IsWhite(bob, alice) {
		t.Fatal("digest authorize did not whitelist")
	}
	ds := e.inbox
	if len(ds) != 1 || ds[0].Via != ViaDigest || ds[0].Delay() != 26*time.Hour {
		t.Fatalf("deliveries = %+v", ds)
	}
	// Authorizing again fails: already delivered.
	if err := e.eng.AuthorizeFromDigest(bob, pending[0].MsgID); err == nil {
		t.Fatal("second authorize succeeded")
	}
}

func TestPendingForUserOldestFirst(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")

	first := e.goodMsg("ann@example.com", "bob@corp.example")
	e.eng.Receive(first)
	e.clk.Advance(time.Hour)
	// Two messages queued at the same instant: the message ID breaks the
	// tie, whatever order they arrived in.
	late := e.goodMsg("cid@example.com", "bob@corp.example")
	late.ID = "m-b"
	early := e.goodMsg("dee@example.com", "bob@corp.example")
	early.ID = "m-a"
	e.eng.Receive(late)
	e.eng.Receive(early)

	pending := e.eng.PendingForUser(bob)
	var got []string
	for _, it := range pending {
		got = append(got, it.MsgID)
	}
	want := []string{first.ID, "m-a", "m-b"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("pending = %v, want %v", got, want)
	}
	if !pending[0].Queued.Equal(t0) || !pending[1].Queued.Equal(t0.Add(time.Hour)) {
		t.Fatalf("queue times = %v, %v", pending[0].Queued, pending[1].Queued)
	}
}

func TestAuthorizeFromDigestWrongUser(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	e.eng.AddUser(mail.MustParseAddress("carol@corp.example"))
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m)
	carol := mail.MustParseAddress("carol@corp.example")
	if err := e.eng.AuthorizeFromDigest(carol, m.ID); err == nil {
		t.Fatal("carol authorized bob's message")
	}
}

func TestDeleteFromDigest(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	bob := mail.MustParseAddress("bob@corp.example")
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m)
	if err := e.eng.DeleteFromDigest(bob, m.ID); err != nil {
		t.Fatal(err)
	}
	if e.eng.QuarantineLen() != 0 || e.eng.Metrics().DigestDeleted != 1 {
		t.Fatal("delete did not clear quarantine")
	}
	// The challenge token is dead too.
	if _, err := e.eng.Captcha().Visit(e.sent[0].Token); err == nil {
		t.Fatal("token survives digest delete")
	}
	if err := e.eng.DeleteFromDigest(bob, "m-unknown"); err == nil {
		t.Fatal("deleting unknown message succeeded")
	}
}

func TestQuarantineExpiry(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	e.eng.Receive(m)
	e.clk.Advance(29 * 24 * time.Hour)
	if n := e.eng.ExpireQuarantine(); n != 0 {
		t.Fatalf("expired %d before TTL", n)
	}
	e.clk.Advance(2 * 24 * time.Hour)
	if n := e.eng.ExpireQuarantine(); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if e.eng.Metrics().QuarantineExpired != 1 || e.eng.QuarantineLen() != 0 {
		t.Fatal("expiry not recorded")
	}
}

func TestNullSenderQuarantinedWithoutChallenge(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	m := e.goodMsg("alice@example.com", "bob@corp.example")
	m.EnvelopeFrom = mail.Null
	if r := e.eng.Receive(m); r != Accepted {
		t.Fatalf("verdict = %v", r)
	}
	met := e.eng.Metrics()
	if met.ChallengesSent != 0 || met.QuarantineOnly != 1 {
		t.Fatalf("bounce handling wrong: %+v", met)
	}
	if e.eng.QuarantineLen() != 1 {
		t.Fatal("bounce not quarantined for digest")
	}
	if len(e.sent) != 0 {
		t.Fatal("challenged a bounce (mail loop!)")
	}
}

func TestUserSentMailWhitelists(t *testing.T) {
	e := newEnv(t, false)
	bob := mail.MustParseAddress("bob@corp.example")
	dave := mail.MustParseAddress("dave@example.com")
	e.eng.UserSentMail(bob, dave)
	m := e.goodMsg("dave@example.com", "bob@corp.example")
	e.eng.Receive(m)
	if e.eng.Metrics().SpoolWhite != 1 {
		t.Fatal("reply from implicit-whitelisted sender not white")
	}
}

func TestMetricsRatios(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	// 1 white + 1 gray-challenged = 2 reaching dispatcher, 1 challenge.
	bob := mail.MustParseAddress("bob@corp.example")
	e.eng.AddManualWhitelist(bob, mail.MustParseAddress("friend@example.com"))
	e.eng.Receive(e.goodMsg("friend@example.com", "bob@corp.example"))
	e.eng.Receive(e.goodMsg("stranger@example.com", "bob@corp.example"))
	// 1 MTA drop.
	e.eng.Receive(e.goodMsg("alice@example.com", "nobody@corp.example"))

	m := e.eng.Metrics()
	if got := m.ReflectionRatio(); got != 0.5 {
		t.Fatalf("R = %v, want 0.5", got)
	}
	if got := m.ReflectionRatioMTA(); got != 1.0/3 {
		t.Fatalf("R@MTA = %v, want 1/3", got)
	}
	wantRT := 1800.0 / 8000.0
	if got := m.ReflectedTrafficRatio(); got != wantRT {
		t.Fatalf("RT = %v, want %v", got, wantRT)
	}
	if m.TotalMTADropped() != 1 {
		t.Fatalf("TotalMTADropped = %d", m.TotalMTADropped())
	}
}

func TestMetricsSnapshotIsolated(t *testing.T) {
	e := newEnv(t, false)
	m := e.eng.Metrics()
	m.MTADropped[Malformed] = 999
	if e.eng.Metrics().MTADropped[Malformed] != 0 {
		t.Fatal("Metrics returned aliased map")
	}
}

func TestZeroRatiosOnEmptyEngine(t *testing.T) {
	e := newEnv(t, false)
	m := e.eng.Metrics()
	if m.ReflectionRatio() != 0 || m.ReflectionRatioMTA() != 0 || m.ReflectedTrafficRatio() != 0 {
		t.Fatal("empty-engine ratios not zero")
	}
}

func TestStringers(t *testing.T) {
	if Accepted.String() != "accepted" || UnknownRecipient.String() != "unknown-recipient" {
		t.Fatal("MTAReason.String wrong")
	}
	if ViaChallenge.String() != "challenge" {
		t.Fatal("DeliveryVia.String wrong")
	}
	if !strings.Contains(MTAReason(42).String(), "42") {
		t.Fatal("unknown MTAReason.String")
	}
}

func TestReceiveManyDistinctSenders(t *testing.T) {
	e := newEnv(t, false)
	e.dns.AddPTR("192.0.2.10", "mail.example.com")
	for i := 0; i < 50; i++ {
		m := e.goodMsg(fmt.Sprintf("s%d@example.com", i), "bob@corp.example")
		if r := e.eng.Receive(m); r != Accepted {
			t.Fatalf("verdict = %v", r)
		}
	}
	met := e.eng.Metrics()
	if met.ChallengesSent != 50 || e.eng.QuarantineLen() != 50 {
		t.Fatalf("metrics = %+v", met)
	}
}

func BenchmarkReceiveGray(b *testing.B) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")
	prov := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clk)
	chain := filters.NewChain(filters.NewAntivirus(), filters.NewReverseDNS(dns), filters.NewRBL(prov))
	wl := whitelist.NewStore(clk)
	eng := New(Config{
		Name: "bench", Domains: []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("cr@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, chain, wl, func(OutboundChallenge) {})
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &mail.Message{
			ID:           fmt.Sprintf("b-%d", i),
			EnvelopeFrom: mail.Address{Local: fmt.Sprintf("s%d", i), Domain: "example.com"},
			Rcpt:         mail.MustParseAddress("bob@corp.example"),
			Subject:      "bench message subject",
			Size:         4000,
			ClientIP:     "192.0.2.10",
		}
		eng.Receive(m)
	}
}

// BenchmarkEngineWithReputation measures the engine's gray-message path
// with the reputation fast path hot: concurrent deliveries from a
// trusted sender to rotating recipients, each skipping the probe chain.
func BenchmarkEngineWithReputation(b *testing.B) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("letters.example", "198.51.100.5")
	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	eng := New(Config{
		Name:             "bench",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, filters.NewChain(
		filters.NewReputation(rep),
		filters.NewAntivirus(),
		filters.NewReverseDNS(dns),
	), whitelist.NewStore(clk), func(OutboundChallenge) {})
	eng.SetReputation(rep)
	const nUsers = 256
	users := make([]mail.Address, nUsers)
	for i := range users {
		users[i] = mail.MustParseAddress(fmt.Sprintf("u%03d@corp.example", i))
		eng.AddUser(users[i])
	}
	news := mail.MustParseAddress("news@letters.example")
	for i := 0; i < 4; i++ {
		rep.Record(news, "198.51.100.5", reputation.Solved)
	}
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(atomic.AddInt64(&next, 7841))
		for pb.Next() {
			msg := &mail.Message{
				ID:           mail.NewID("b"),
				EnvelopeFrom: news,
				Rcpt:         users[i%nUsers],
				Subject:      "weekly digest",
				Size:         4000,
				ClientIP:     "198.51.100.5",
				Received:     clk.Now(),
			}
			if v := eng.Receive(msg); v != Accepted {
				b.Fatalf("verdict %v", v)
			}
			i++
		}
	})
	b.StopTimer()
	m := eng.Metrics()
	if m.ReputationFastPath == 0 {
		b.Fatal("fast path never taken; benchmark is not measuring it")
	}
	b.ReportMetric(float64(m.ReputationFastPath)/float64(m.MTAIncoming)*100, "%fast-path")
}

func BenchmarkReceiveWhite(b *testing.B) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")
	wl := whitelist.NewStore(clk)
	eng := New(Config{
		Name: "bench", Domains: []string{"corp.example"},
		ChallengeFrom: mail.MustParseAddress("cr@corp.example"),
	}, clk, dns, filters.NewChain(), wl, func(OutboundChallenge) {})
	bob := mail.MustParseAddress("bob@corp.example")
	alice := mail.MustParseAddress("alice@example.com")
	eng.AddUser(bob)
	eng.AddManualWhitelist(bob, alice)
	m := &mail.Message{
		ID: "w", EnvelopeFrom: alice, Rcpt: bob,
		Subject: "hello", Size: 3000, ClientIP: "192.0.2.10",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Receive(m)
	}
}
