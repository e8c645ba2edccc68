package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/rbl"
	"repro/internal/reputation"
	"repro/internal/whitelist"
)

// toggleInjector fails the reputation store on demand.
type toggleInjector struct{ on atomic.Bool }

func (ti *toggleInjector) Decide(target string, _ time.Duration) faults.Decision {
	if target == "reputation" && ti.on.Load() {
		return faults.Decision{Err: errors.New("reputation store down")}
	}
	return faults.Decision{}
}

// countingFilter counts how often the chain actually invokes the
// wrapped probe filter, so the fast-path skip is directly observable.
type countingFilter struct {
	inner filters.Filter
	n     *int64
}

func (c countingFilter) Name() string { return c.inner.Name() }

func (c countingFilter) Check(msg *mail.Message) filters.Result {
	atomic.AddInt64(c.n, 1)
	return c.inner.Check(msg)
}

// repEnv is the reputation end-to-end fixture: an engine with the
// reputation store wired in and the reverse-DNS probe instrumented.
type repEnv struct {
	clk    *clock.Sim
	dns    *dnssim.Server
	eng    *Engine
	rep    *reputation.Store
	inj    *toggleInjector
	sent   []OutboundChallenge
	events []maillog.Event
	probes int64
}

func newRepEnv(t *testing.T, users int) *repEnv {
	t.Helper()
	e := &repEnv{clk: clock.NewSim(t0), dns: dnssim.NewServer(), inj: &toggleInjector{}}
	repCfg := reputation.DefaultConfig()
	repCfg.Injector = e.inj
	e.rep = reputation.NewStore(repCfg, e.clk)
	rblProv := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), e.clk)
	chain := filters.NewChain(
		filters.Harden(filters.NewReputation(e.rep), filters.FailOpen, filters.HardenOpts{}),
		filters.NewAntivirus(),
		countingFilter{inner: filters.NewReverseDNS(e.dns), n: &e.probes},
		filters.NewRBL(rblProv),
	)
	cfg := Config{
		Name:             "corp",
		Domains:          []string{"corp.example"},
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
		Seed:             11,
	}
	e.eng = New(cfg, e.clk, e.dns, chain, whitelist.NewStore(e.clk), nil)
	e.eng.SetReputation(e.rep)
	e.eng.SetChallengeSender(func(ch OutboundChallenge) { e.sent = append(e.sent, ch) })
	e.eng.SetEventSink(func(ev maillog.Event) { e.events = append(e.events, ev) })
	for i := 0; i < users; i++ {
		e.eng.AddUser(mail.MustParseAddress(fmt.Sprintf("u%02d@corp.example", i)))
	}
	return e
}

func (e *repEnv) receive(from, to, ip string) MTAReason {
	return e.eng.Receive(&mail.Message{
		ID:           mail.NewID("m"),
		EnvelopeFrom: mail.MustParseAddress(from),
		Rcpt:         mail.MustParseAddress(to),
		Subject:      "subject",
		Size:         3000,
		ClientIP:     ip,
		Received:     e.clk.Now(),
	})
}

// solveOutstanding answers every not-yet-solved challenge in e.sent.
func (e *repEnv) solveOutstanding(t *testing.T, from int) int {
	t.Helper()
	svc := e.eng.Captcha()
	for _, ch := range e.sent[from:] {
		ans, err := svc.Answer(ch.Token)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Solve(ch.Token, ans); err != nil {
			t.Fatal(err)
		}
	}
	return len(e.sent)
}

// TestReputationEndToEnd is the acceptance scenario: ≥1k messages from
// a churning botnet campaign plus a stable newsletter sender. The
// newsletter sender must reach the trusted band and have its later
// messages skip the probe filters; the botnet senders must never reach
// trusted; and the engine's fast-path counter must equal the number of
// fast-path events in the decision log.
func TestReputationEndToEnd(t *testing.T) {
	const nUsers = 40
	e := newRepEnv(t, nUsers)
	e.dns.RegisterMailDomain("victims.example", "203.0.113.9") // spoofed domain resolves
	e.dns.RegisterMailDomain("letters.example", "198.51.100.5")

	total := 0
	user := func(i int) string { return fmt.Sprintf("u%02d@corp.example", i%nUsers) }

	// Botnet campaign: 200 spoofed senders, 3 messages each, every
	// message from a fresh residential IP with no PTR record.
	const nBots, perBot = 200, 3
	for i := 0; i < nBots; i++ {
		for j := 0; j < perBot; j++ {
			from := fmt.Sprintf("spoof%03d@victims.example", i)
			ip := fmt.Sprintf("100.66.%d.%d", (i*perBot+j)/250, (i*perBot+j)%250+1)
			if r := e.receive(from, user(i+j), ip); r != Accepted {
				t.Fatalf("bot message %d/%d: MTA verdict %v", i, j, r)
			}
			total++
			e.clk.Advance(30 * time.Second)
		}
	}

	// Newsletter sender: establish history by solving its challenges.
	const news, newsIP = "news@letters.example", "198.51.100.5"
	solved := 0
	for i := 0; i < 2; i++ {
		if r := e.receive(news, user(i), newsIP); r != Accepted {
			t.Fatalf("newsletter establish %d: MTA verdict %v", i, r)
		}
		total++
		e.clk.Advance(10 * time.Minute)
		solved = e.solveOutstanding(t, solved)
	}
	if v := e.rep.Score(mail.MustParseAddress(news), newsIP); v.Band != reputation.Trusted {
		t.Fatalf("newsletter sender after solves: %+v, want trusted", v)
	}

	// Steady-state newsletter traffic to fresh recipients: every message
	// is gray (no per-recipient whitelist entry yet) and must take the
	// reputation fast path — zero additional probe-filter invocations.
	const bulk = 450
	m0 := e.eng.Metrics()
	probesBefore := atomic.LoadInt64(&e.probes)
	for i := 0; i < bulk; i++ {
		// Rotate over the recipients the sender is NOT whitelisted for
		// (u00/u01 authorized it by solving), so every message is gray.
		if r := e.receive(news, user(2+i%(nUsers-2)), newsIP); r != Accepted {
			t.Fatalf("newsletter bulk %d: MTA verdict %v", i, r)
		}
		total++
		e.clk.Advance(time.Minute)
	}
	m1 := e.eng.Metrics()

	if total < 1000 {
		t.Fatalf("scenario drove only %d messages, want ≥1000", total)
	}
	if got := m1.ReputationFastPath - m0.ReputationFastPath; got != bulk {
		t.Fatalf("fast-path hits during bulk = %d, want %d", got, bulk)
	}
	if got := atomic.LoadInt64(&e.probes); got != probesBefore {
		t.Fatalf("probe filter ran %d more times during bulk; fast path did not skip it",
			got-probesBefore)
	}

	// (b) Churning botnet senders never reach the trusted band, and the
	// suspect tightening actually dropped messages.
	for i := 0; i < nBots; i++ {
		from := mail.MustParseAddress(fmt.Sprintf("spoof%03d@victims.example", i))
		if v := e.rep.Score(from, ""); v.Band == reputation.Trusted {
			t.Fatalf("botnet sender %s reached trusted: %+v", from, v)
		}
	}
	if m1.ReputationSuspect == 0 {
		t.Fatal("no suspect-band drops recorded for the botnet campaign")
	}
	if m1.ReputationSuspect != m1.FilterDropped["reputation"] {
		t.Fatalf("ReputationSuspect %d != FilterDropped[reputation] %d",
			m1.ReputationSuspect, m1.FilterDropped["reputation"])
	}

	// (c) The fast-path metric equals the skip events in the decision
	// log — no silent bypasses — both counted raw and via the aggregate
	// the measurement pipeline computes.
	agg := maillog.NewAggregate()
	var fastPathEvents int64
	for _, ev := range e.events {
		agg.Add(&ev)
		if ev.Kind == maillog.KindReputation && ev.Field("action") == "fast-path" {
			fastPathEvents++
			if ev.Field("band") != "trusted" || ev.Field("keys") == "" {
				t.Fatalf("fast-path event missing evidence fields: %s", ev.AppendFormat(nil))
			}
		}
	}
	if m1.ReputationFastPath == 0 || fastPathEvents != m1.ReputationFastPath {
		t.Fatalf("fast-path metric %d != %d logged skip events",
			m1.ReputationFastPath, fastPathEvents)
	}
	if got := agg.Total().Reputation["fast-path"]; got != m1.ReputationFastPath {
		t.Fatalf("aggregate fast-path %d != metric %d", got, m1.ReputationFastPath)
	}
	if agg.Total().Reputation["suspect"] != m1.ReputationSuspect {
		t.Fatalf("aggregate suspect %d != metric %d",
			agg.Total().Reputation["suspect"], m1.ReputationSuspect)
	}
}

// TestReputationStoreOutageFailsOpen: with the store erroring, gray
// messages still traverse the full chain and are challenged — the
// reputation layer is advisory and must never block mail.
func TestReputationStoreOutageFailsOpen(t *testing.T) {
	e := newRepEnv(t, 4)
	e.dns.RegisterMailDomain("letters.example", "198.51.100.5")

	// Build trust first, then break the store.
	const news, newsIP = "news@letters.example", "198.51.100.5"
	solved := 0
	for i := 0; i < 2; i++ {
		e.receive(news, fmt.Sprintf("u%02d@corp.example", i), newsIP)
		e.clk.Advance(time.Minute)
		solved = e.solveOutstanding(t, solved)
	}
	e.inj.on.Store(true)

	probesBefore := atomic.LoadInt64(&e.probes)
	if r := e.receive(news, "u02@corp.example", newsIP); r != Accepted {
		t.Fatalf("MTA verdict %v under store outage", r)
	}
	m := e.eng.Metrics()
	if atomic.LoadInt64(&e.probes) != probesBefore+1 {
		t.Fatal("store outage should fall back to the full probe chain")
	}
	if m.FilterDegraded["reputation"] == 0 {
		t.Fatal("store outage not counted as a degraded reputation decision")
	}
	if len(e.sent) != solved+1 {
		t.Fatalf("message under store outage was not challenged: %d challenges", len(e.sent))
	}
}
