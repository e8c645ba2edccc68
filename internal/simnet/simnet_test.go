package simnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/rbl"
	"repro/internal/resilience"
	"repro/internal/whitelist"
)

var t0 = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

// world bundles a single-company network for tests.
type world struct {
	clk   *clock.Sim
	sched *clock.Scheduler
	dns   *dnssim.Server
	provs []*rbl.Provider
	traps *rbl.TrapRegistry
	net   *Network
	comp  *Company
}

func newWorld(t testing.TB, seed int64) *world {
	t.Helper()
	w := &world{clk: clock.NewSim(t0)}
	w.sched = clock.NewScheduler(w.clk)
	w.dns = dnssim.NewServer()
	w.provs = rbl.StandardProviders(w.clk)
	w.traps = rbl.NewTrapRegistry(w.provs...)
	w.net = New(w.dns, w.traps, Config{})

	spamhaus := w.provs[2] // the engine's RBL filter input
	chain := filters.NewChain(
		filters.NewAntivirus(),
		filters.NewReverseDNS(w.dns),
		filters.NewRBL(spamhaus),
	)
	wl := whitelist.NewStore(w.clk)
	eng := core.New(core.Config{
		Name:             "corp",
		Domains:          []string{"corp.example"},
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
		ChallengeSize:    1800,
		Seed:             seed,
	}, w.clk, w.dns, chain, wl, nil)
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	w.dns.RegisterMailDomain("corp.example", "198.51.100.1")

	w.comp = &Company{Name: "corp", Engine: eng, ChallengeIP: "198.51.100.1", MailIP: "198.51.100.1"}
	w.net.AttachCompanyLane(w.comp, w.clk, w.sched, seed, w.dns, nil)
	return w
}

// addRemote registers a well-behaved remote domain and returns it.
func (w *world) addRemote(domain, ip string) *RemoteServer {
	r := NewRemoteServer(domain, ip)
	w.net.AddRemote(r)
	return r
}

// inject feeds one message from sender into the company engine.
func (w *world) inject(senderAddr string, clientIP string) *mail.Message {
	m := &mail.Message{
		ID:           mail.NewID("sn"),
		EnvelopeFrom: mail.MustParseAddress(senderAddr),
		Rcpt:         mail.MustParseAddress("bob@corp.example"),
		Subject:      "subject line with enough words to be ordinary",
		Size:         4000,
		ClientIP:     clientIP,
		Received:     w.clk.Now(),
	}
	w.comp.Engine.Receive(m)
	return m
}

func TestChallengeDeliveredAndSolvedByLegitSender(t *testing.T) {
	for _, tc := range []struct {
		name     string
		persona  Persona
		domain   string
		remoteIP string
		clientIP string // the SMTP client the message arrives from
	}{
		{"legit sender", PersonaLegit, "example.com", "192.0.2.10", "192.0.2.10"},
		// §4.1's spurious delivery: spam from a botnet host spoofs an
		// innocent bystander, who opens the misdirected challenge and
		// solves it, so the spam is delivered and the spoofed address
		// whitelisted.
		{"spoofed bystander", PersonaInnocent, "bystander.example", "203.0.113.5", "100.64.0.9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 1)
			r := w.addRemote(tc.domain, tc.remoteIP)
			// The botnet host has reverse DNS and is on no blocklist, so
			// the filter chain lets its message through to the gray spool.
			w.dns.AddPTR("100.64.0.9", "dsl-9.isp.example")
			// Guarantee a deterministic solve: visit always, solve always.
			b := DefaultBehavior(tc.persona)
			b.VisitProb, b.SolveProbGivenVisit = 1, 1
			r.AddMailboxBehavior("alice", tc.persona, b)

			sender := "alice@" + tc.domain
			w.inject(sender, tc.clientIP)
			if got := len(w.net.Records()); got != 1 {
				t.Fatalf("records = %d, want 1", got)
			}
			w.sched.RunUntil(w.clk.Now().Add(7 * 24 * time.Hour))

			rec := w.net.Records()[0]
			if rec.Status != StatusDelivered {
				t.Fatalf("status = %v", rec.Status)
			}
			if !rec.Solved || !rec.Visited {
				t.Fatalf("record not solved: %+v", rec)
			}
			if rec.CaptchaAttempts < 1 || rec.CaptchaAttempts > 5 {
				t.Fatalf("attempts = %d, want 1..5 (paper: never >5)", rec.CaptchaAttempts)
			}
			// Engine side: message delivered via challenge, sender whitelisted.
			eng := w.comp.Engine
			if eng.Metrics().Delivered[core.ViaChallenge] != 1 {
				t.Fatal("engine did not deliver on solve")
			}
			if !eng.Whitelists().IsWhite(mail.MustParseAddress("bob@corp.example"), mail.MustParseAddress(sender)) {
				t.Fatal("sender not whitelisted after solve")
			}
		})
	}
}

func TestChallengeBouncesNoUser(t *testing.T) {
	w := newWorld(t, 2)
	w.addRemote("example.com", "192.0.2.10") // domain exists, mailbox doesn't
	w.inject("ghost@example.com", "192.0.2.10")
	w.sched.RunUntil(w.clk.Now().Add(time.Hour))
	rec := w.net.Records()[0]
	if rec.Status != StatusBouncedNoUser {
		t.Fatalf("status = %v, want bounced-no-user", rec.Status)
	}
	if !rec.Status.Bounced() {
		t.Fatal("Bounced() = false")
	}
}

func TestChallengeBouncesNoDomain(t *testing.T) {
	w := newWorld(t, 3)
	// Sender domain resolvable at MTA-IN time but has no remote server:
	// register DNS only.
	w.dns.RegisterMailDomain("phantom.example", "203.0.113.99")
	w.dns.AddPTR("203.0.113.50", "mail.phantom.example")
	w.inject("x@phantom.example", "203.0.113.50")
	w.sched.RunUntil(w.clk.Now().Add(time.Hour))
	rec := w.net.Records()[0]
	if rec.Status != StatusBouncedNoDomain {
		t.Fatalf("status = %v, want bounced-no-domain", rec.Status)
	}
}

func TestChallengeExpiresForUnreachableServer(t *testing.T) {
	w := newWorld(t, 4)
	r := w.addRemote("deadmx.example", "192.0.2.66")
	r.Unreachable = true
	w.inject("x@deadmx.example", "192.0.2.66")
	w.sched.RunUntil(w.clk.Now().Add(10 * 24 * time.Hour))
	rec := w.net.Records()[0]
	if rec.Status != StatusExpired {
		t.Fatalf("status = %v, want expired", rec.Status)
	}
	if int(rec.Attempts) != len(resilience.MTARetrySchedule)+1 {
		t.Fatalf("attempts = %d, want %d", rec.Attempts, len(resilience.MTARetrySchedule)+1)
	}
}

func TestChallengeToTrapListsServerIP(t *testing.T) {
	w := newWorld(t, 5)
	w.addRemote("lure.example", "192.0.2.77")
	// A partner that screens inbound mail against SpamHaus, which lists
	// after three trap hits in a day for 72 h (StandardProviders).
	spamhaus, spamhausTTL := w.provs[2], 72*time.Hour
	partner := w.addRemote("partner.example", "192.0.2.123")
	partner.Screen = spamhaus
	partner.AddMailbox("client", PersonaLegit)
	client := mail.MustParseAddress("client@partner.example")
	if got := w.net.SendUserMail(w.comp, client); got != UserMailDelivered {
		t.Fatalf("user mail before the trap hits = %v, want delivered", got)
	}

	// Five distinct trap addresses: the engine challenges each sender
	// once (repeat senders are deduplicated), so distinct senders are
	// needed to accumulate trap hits.
	for i := 0; i < 5; i++ {
		w.traps.AddTrap(mail.MustParseAddress(fmt.Sprintf("contact%d@lure.example", i)))
	}
	for i := 0; i < 5; i++ {
		w.inject(fmt.Sprintf("contact%d@lure.example", i), "192.0.2.77")
	}
	w.sched.RunUntil(w.clk.Now().Add(time.Hour))
	// The hits wait on the lane until a barrier applies them.
	if staged := w.net.StagedTrapHits(); staged != 5 {
		t.Fatalf("staged trap hits = %d, want 5", staged)
	}
	if spamhaus.IsListed(w.comp.ChallengeIP) {
		t.Fatal("challenge IP listed before the staged hits were flushed")
	}
	if flushed := w.net.FlushTrapHits(); flushed != 5 {
		t.Fatalf("flushed %d trap hits, want 5", flushed)
	}

	st := w.net.DeliveryStats()
	if st.TrapHits != 5 {
		t.Fatalf("trap hits = %d, want 5", st.TrapHits)
	}
	listed := false
	for _, p := range w.provs {
		if p.IsListed(w.comp.ChallengeIP) {
			listed = true
		}
	}
	if !listed {
		t.Fatal("challenge IP not blacklisted after repeated trap hits")
	}

	// §5.1: the challenge IP is also the user mail IP, so the listing
	// bounces ordinary user mail at the partner...
	if got := w.net.SendUserMail(w.comp, client); got != UserMailBouncedBlacklisted {
		t.Fatalf("user mail while listed = %v, want bounced-blacklisted", got)
	}
	// ...until the listing expires with no further hits.
	w.sched.RunUntil(w.clk.Now().Add(spamhausTTL))
	if spamhaus.IsListed(w.comp.MailIP) {
		t.Fatalf("still listed %v after the last trap hit", spamhausTTL)
	}
	if got := w.net.SendUserMail(w.comp, client); got != UserMailDelivered {
		t.Fatalf("user mail after the listing TTL = %v, want delivered", got)
	}
}

func TestChallengeBouncedWhenBlacklisted(t *testing.T) {
	w := newWorld(t, 6)
	r := w.addRemote("careful.example", "192.0.2.88")
	r.Screen = w.provs[0]
	r.AddMailbox("user", PersonaInnocent)
	// Pre-list the company's challenge IP on the screened provider.
	w.provs[0].AddStatic(w.comp.ChallengeIP)
	w.inject("user@careful.example", "192.0.2.88")
	w.sched.RunUntil(w.clk.Now().Add(time.Hour))
	rec := w.net.Records()[0]
	if rec.Status != StatusBouncedBlacklisted {
		t.Fatalf("status = %v, want bounced-blacklisted", rec.Status)
	}
}

func TestRobotNeverReacts(t *testing.T) {
	w := newWorld(t, 7)
	r := w.addRemote("notifier.example", "192.0.2.99")
	r.AddMailbox("noreply", PersonaRobot)
	w.inject("noreply@notifier.example", "192.0.2.99")
	w.sched.RunUntil(w.clk.Now().Add(30 * 24 * time.Hour))
	rec := w.net.Records()[0]
	if rec.Status != StatusDelivered || rec.Visited || rec.Solved {
		t.Fatalf("robot record = %+v", rec)
	}
	st := w.net.DeliveryStats()
	if st.NeverVisited != 1 {
		t.Fatalf("NeverVisited = %d", st.NeverVisited)
	}
}

func TestInnocentAlmostAlwaysIgnores(t *testing.T) {
	w := newWorld(t, 8)
	r := w.addRemote("bystander.example", "203.0.113.5")
	for i := 0; i < 300; i++ {
		r.AddMailbox(fmt.Sprintf("victim%d", i), PersonaInnocent)
	}
	for i := 0; i < 300; i++ {
		w.inject(fmt.Sprintf("victim%d@bystander.example", i), "203.0.113.5")
	}
	w.sched.RunUntil(w.clk.Now().Add(30 * 24 * time.Hour))
	st := w.net.DeliveryStats()
	if st.ByStatus[StatusDelivered] != 300 {
		t.Fatalf("delivered = %d", st.ByStatus[StatusDelivered])
	}
	// With VisitProb 0.01, solves must be rare (allow a little slack).
	if st.Solved > 5 {
		t.Fatalf("innocent solves = %d, want near 0", st.Solved)
	}
	if st.NeverVisited < 280 {
		t.Fatalf("NeverVisited = %d, want ~297", st.NeverVisited)
	}
}

func TestSendUserMailOutcomes(t *testing.T) {
	w := newWorld(t, 9)
	r := w.addRemote("partner.example", "192.0.2.123")
	r.AddMailbox("client", PersonaLegit)

	if got := w.net.SendUserMail(w.comp, mail.MustParseAddress("client@partner.example")); got != UserMailDelivered {
		t.Fatalf("outcome = %v, want delivered", got)
	}
	if got := w.net.SendUserMail(w.comp, mail.MustParseAddress("ghost@partner.example")); got != UserMailBouncedNoUser {
		t.Fatalf("outcome = %v, want no-user", got)
	}
	if got := w.net.SendUserMail(w.comp, mail.MustParseAddress("x@nowhere.example")); got != UserMailFailed {
		t.Fatalf("outcome = %v, want failed", got)
	}

	// Blacklist the shared IP: user mail to a screening destination bounces.
	r.Screen = w.provs[0]
	w.provs[0].AddStatic(w.comp.MailIP)
	if got := w.net.SendUserMail(w.comp, mail.MustParseAddress("client@partner.example")); got != UserMailBouncedBlacklisted {
		t.Fatalf("outcome = %v, want bounced-blacklisted", got)
	}
	stats := w.net.UserMailStats()
	if stats[UserMailDelivered] != 1 || stats[UserMailBouncedBlacklisted] != 1 {
		t.Fatalf("user mail stats = %v", stats)
	}
}

func TestSplitMTAOutShieldsUserMail(t *testing.T) {
	w := newWorld(t, 10)
	w.comp.ChallengeIP = "198.51.100.1"
	w.comp.MailIP = "198.51.100.2"
	if !w.comp.SplitMTAOut() {
		t.Fatal("SplitMTAOut = false")
	}
	r := w.addRemote("partner.example", "192.0.2.123")
	r.Screen = w.provs[0]
	r.AddMailbox("client", PersonaLegit)
	w.provs[0].AddStatic(w.comp.ChallengeIP) // only the challenge IP is listed
	if got := w.net.SendUserMail(w.comp, mail.MustParseAddress("client@partner.example")); got != UserMailDelivered {
		t.Fatalf("split-IP user mail = %v, want delivered", got)
	}
}

func TestAttemptsHistogramNeverExceedsFive(t *testing.T) {
	w := newWorld(t, 11)
	r := w.addRemote("example.com", "192.0.2.10")
	b := DefaultBehavior(PersonaLegit)
	b.VisitProb, b.SolveProbGivenVisit = 1, 1
	for i := 0; i < 200; i++ {
		r.AddMailboxBehavior(fmt.Sprintf("s%d", i), PersonaLegit, b)
	}
	for i := 0; i < 200; i++ {
		w.inject(fmt.Sprintf("s%d@example.com", i), "192.0.2.10")
	}
	w.sched.RunUntil(w.clk.Now().Add(14 * 24 * time.Hour))
	hist := w.net.AttemptsHistogram()
	total := 0
	for attempts, n := range hist {
		if attempts < 1 || attempts > 5 {
			t.Fatalf("attempts bucket %d outside 1..5", attempts)
		}
		total += n
	}
	if total < 190 {
		t.Fatalf("solved = %d, want ~200", total)
	}
	if hist[1] <= hist[2] {
		t.Fatalf("first-try solves (%d) should dominate second-try (%d)", hist[1], hist[2])
	}
}

func TestDeliveryStatsAggregation(t *testing.T) {
	w := newWorld(t, 12)
	r := w.addRemote("example.com", "192.0.2.10")
	b := DefaultBehavior(PersonaLegit)
	b.VisitProb, b.SolveProbGivenVisit = 1, 1
	r.AddMailboxBehavior("real", PersonaLegit, b)
	dead := w.addRemote("deadmx.example", "192.0.2.66")
	dead.Unreachable = true

	w.inject("real@example.com", "192.0.2.10")  // delivered+solved
	w.inject("ghost@example.com", "192.0.2.10") // bounce no-user
	w.inject("x@deadmx.example", "192.0.2.66")  // expired
	w.sched.RunUntil(w.clk.Now().Add(10 * 24 * time.Hour))

	st := w.net.DeliveryStats()
	if st.Total != 3 {
		t.Fatalf("total = %d", st.Total)
	}
	if st.ByStatus[StatusDelivered] != 1 || st.ByStatus[StatusBouncedNoUser] != 1 || st.ByStatus[StatusExpired] != 1 {
		t.Fatalf("ByStatus = %v", st.ByStatus)
	}
	if st.Solved != 1 {
		t.Fatalf("solved = %d", st.Solved)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[ChallengeStatus]string{
		StatusPending:            "pending",
		StatusDelivered:          "delivered",
		StatusBouncedNoUser:      "bounced-no-user",
		StatusBouncedNoDomain:    "bounced-no-domain",
		StatusBouncedBlacklisted: "bounced-blacklisted",
		StatusExpired:            "expired",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	for p, want := range map[Persona]string{
		PersonaLegit: "legit", PersonaNewsletter: "newsletter",
		PersonaInnocent: "innocent", PersonaRobot: "robot",
	} {
		if p.String() != want {
			t.Errorf("Persona(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, int) {
		w := newWorld(t, 42)
		mail.ResetIDCounter()
		r := w.addRemote("example.com", "192.0.2.10")
		for i := 0; i < 50; i++ {
			r.AddMailbox(fmt.Sprintf("s%d", i), PersonaLegit)
		}
		for i := 0; i < 50; i++ {
			w.inject(fmt.Sprintf("s%d@example.com", i), "192.0.2.10")
		}
		w.sched.RunUntil(w.clk.Now().Add(7 * 24 * time.Hour))
		st := w.net.DeliveryStats()
		return st.Solved, st.NeverVisited
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Fatalf("equal seeds diverged: (%d,%d) vs (%d,%d)", s1, n1, s2, n2)
	}
}

func BenchmarkChallengeRoundTrip(b *testing.B) {
	w := &world{clk: clock.NewSim(t0)}
	w.sched = clock.NewScheduler(w.clk)
	w.dns = dnssim.NewServer()
	w.provs = rbl.StandardProviders(w.clk)
	w.traps = rbl.NewTrapRegistry(w.provs...)
	w.net = New(w.dns, w.traps, Config{})
	wl := whitelist.NewStore(w.clk)
	eng := core.New(core.Config{
		Name: "bench", Domains: []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, w.clk, w.dns, filters.NewChain(), wl, nil)
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	w.comp = &Company{Name: "bench", Engine: eng, ChallengeIP: "198.51.100.1", MailIP: "198.51.100.1"}
	w.net.AttachCompanyLane(w.comp, w.clk, w.sched, 1, w.dns, nil)
	r := NewRemoteServer("example.com", "192.0.2.10")
	bh := DefaultBehavior(PersonaLegit)
	bh.VisitProb, bh.SolveProbGivenVisit = 1, 1
	for i := 0; i < 1000; i++ {
		r.AddMailboxBehavior(fmt.Sprintf("s%d", i), PersonaLegit, bh)
	}
	w.net.AddRemote(r)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &mail.Message{
			ID:           fmt.Sprintf("bench-%d", i),
			EnvelopeFrom: mail.Address{Local: fmt.Sprintf("s%d", i%1000), Domain: "example.com"},
			Rcpt:         mail.MustParseAddress("bob@corp.example"),
			Subject:      "bench",
			Size:         4000,
			ClientIP:     "192.0.2.10",
			Received:     w.clk.Now(),
		}
		eng.Receive(m)
		w.sched.RunUntil(w.clk.Now().Add(time.Hour))
	}
}

// BenchmarkChallengeStatusAggregation measures the Figure 4(a) records
// scan itself rather than the simulation that fills it: DeliveryStats
// over a network holding a few thousand challenge records, a third
// delivered to mailboxes that solve and two thirds bounced no-user.
func BenchmarkChallengeStatusAggregation(b *testing.B) {
	w := newWorld(b, 1)
	r := w.addRemote("example.com", "192.0.2.10")
	for i := 0; i < 1000; i++ {
		r.AddMailbox(fmt.Sprintf("s%d", i), PersonaLegit)
	}
	for i := 0; i < 3000; i++ {
		w.inject(fmt.Sprintf("s%d@example.com", i), "192.0.2.10")
	}
	w.sched.RunUntil(w.clk.Now().Add(7 * 24 * time.Hour))
	if st := w.net.DeliveryStats(); st.Total != 3000 || st.Solved == 0 {
		b.Fatalf("setup recorded %d challenges, %d solved; want 3000 with some solved", st.Total, st.Solved)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.net.DeliveryStats()
	}
}

// TestTransientOutageDeliversLate: a destination that is down for a few
// hours receives the challenge once it recovers — the retry schedule's
// success path (as opposed to the expiry path of unreachable servers).
func TestTransientOutageDeliversLate(t *testing.T) {
	w := newWorld(t, 55)
	r := w.addRemote("flaky.example", "192.0.2.44")
	b := DefaultBehavior(PersonaLegit)
	b.VisitProb, b.SolveProbGivenVisit = 1, 1
	r.AddMailboxBehavior("carol", PersonaLegit, b)
	r.DownUntil = w.clk.Now().Add(3 * time.Hour) // outage window

	w.inject("carol@flaky.example", "192.0.2.44")
	w.sched.RunUntil(w.clk.Now().Add(10 * 24 * time.Hour))

	rec := w.net.Records()[0]
	if rec.Status != StatusDelivered {
		t.Fatalf("status = %v, want delivered after recovery", rec.Status)
	}
	if rec.Attempts < 2 {
		t.Fatalf("attempts = %d, want retries before success", rec.Attempts)
	}
	// The challenge was solved despite the late delivery.
	if !rec.Solved {
		t.Fatal("late-delivered challenge not solved")
	}
	// Delivery happened on the first attempt after the outage ended:
	// attempt k leaves at submission + transit + the first k-1 waits of
	// the retry ladder.
	attemptAt := func(k int) time.Time {
		at := t0.Add(w.net.cfg.TransitDelay)
		for _, wait := range resilience.MTARetrySchedule[:k-1] {
			at = at.Add(wait)
		}
		return at
	}
	downUntil := t0.Add(3 * time.Hour)
	k := int(rec.Attempts)
	if at := attemptAt(k); at.Before(downUntil) {
		t.Fatalf("delivered on attempt %d at %v, during the outage", k, at)
	}
	if at := attemptAt(k - 1); !at.Before(downUntil) {
		t.Fatalf("attempt %d at %v was already after the outage, yet delivery took attempt %d", k-1, at, k)
	}
}
