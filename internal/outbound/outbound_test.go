package outbound

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mail"
	"repro/internal/resilience"
	"repro/internal/smtp"
	"repro/internal/spool"
	"repro/internal/wal"
)

// smarthost is a test SMTP server that can accept, 4xx or 5xx per
// recipient address.
type smarthost struct {
	mu       sync.Mutex
	accepted []*mail.Message
	tempFail map[string]bool
	permFail map[string]bool
}

func (s *smarthost) ValidateSender(mail.Address) *smtp.Reply { return nil }

func (s *smarthost) ValidateRcpt(_, rcpt mail.Address) *smtp.Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tempFail[rcpt.Key()] {
		return &smtp.Reply{Code: 451, Text: "try later"}
	}
	if s.permFail[rcpt.Key()] {
		return &smtp.Reply{Code: 550, Text: "no such user"}
	}
	return nil
}

func (s *smarthost) Deliver(m *mail.Message) *smtp.Reply {
	kept := *m
	kept.Body = strings.Clone(m.Body) // the body is borrowed
	s.mu.Lock()
	s.accepted = append(s.accepted, &kept)
	s.mu.Unlock()
	return nil
}

func startSmarthost(t *testing.T) (*smarthost, string) {
	t.Helper()
	sh := &smarthost{tempFail: map[string]bool{}, permFail: map[string]bool{}}
	return sh, serve(t, sh)
}

// serve runs an SMTP server for backend on a loopback port until the
// test ends and returns its address.
func serve(t *testing.T, backend smtp.Backend) string {
	t.Helper()
	srv := smtp.NewServer(smtp.Config{Hostname: "smarthost.example", ReadTimeout: 5 * time.Second}, backend)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

// holdingSmarthost is a smarthost whose first delivery waits until
// release is closed; held is closed when that delivery arrives.
type holdingSmarthost struct {
	smarthost
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (h *holdingSmarthost) Deliver(m *mail.Message) *smtp.Reply {
	first := false
	h.once.Do(func() { first = true; close(h.held) })
	if first {
		<-h.release
	}
	return h.smarthost.Deliver(m)
}

func challengeTo(addr string) core.OutboundChallenge {
	return core.OutboundChallenge{
		MsgID:   mail.NewID("q"),
		Token:   "tok-xyz",
		From:    mail.MustParseAddress("challenge@corp.example"),
		To:      mail.MustParseAddress(addr),
		Subject: "original subject",
		URL:     "http://cr.corp.example/challenge/tok-xyz",
		Size:    1800,
	}
}

func newQueue(addr string) *Queue {
	return NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
	})
}

// journalledQueue is newQueue with its spool journal on a journalTap,
// where each challenge's error class and error stay readable after it
// leaves the spool.
func journalledQueue(addr string) (*Queue, *journalTap) {
	tap := &journalTap{}
	return NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Journal:    tap.emit,
	}), tap
}

func TestFlushDelivers(t *testing.T) {
	sh, addr := startSmarthost(t)
	q := newQueue(addr)
	q.Enqueue(challengeTo("alice@example.com"))
	q.Enqueue(challengeTo("bob@example.org"))

	n, err := q.Flush()
	if err != nil || n != 2 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	if got := q.Stats()[StatusSent]; got != 2 {
		t.Fatalf("sent = %d", got)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.accepted) != 2 {
		t.Fatalf("smarthost accepted %d", len(sh.accepted))
	}
	body := sh.accepted[0].Body
	for _, want := range []string{"challenge-response spam filter", "http://cr.corp.example/challenge/tok-xyz"} {
		if !strings.Contains(body, want) {
			t.Fatalf("rendered challenge missing %q:\n%s", want, body)
		}
	}
	if sh.accepted[0].Subject == "" || !strings.Contains(sh.accepted[0].Subject, "confirm") {
		t.Fatalf("challenge subject = %q", sh.accepted[0].Subject)
	}
}

func TestPermanentRejectionBounces(t *testing.T) {
	sh, addr := startSmarthost(t)
	sh.permFail["ghost@example.com"] = true
	q, tap := journalledQueue(addr)
	ghost := challengeTo("ghost@example.com")
	q.Enqueue(ghost)
	q.Enqueue(challengeTo("real@example.com"))

	n, err := q.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("terminal = %d, want 2", n)
	}
	st := q.Stats()
	if st[StatusBounced] != 1 || st[StatusSent] != 1 {
		t.Fatalf("stats = %v", st)
	}
	// The bounce record carries the SMTP error.
	if r := tap.last(ghost.MsgID); r.Op != wal.OpSpoolBounced || !strings.Contains(r.Blob, "550") {
		t.Fatalf("bounce record = %v %q", r.Op, r.Blob)
	}
}

func TestTemporaryRejectionRetriesAndExpires(t *testing.T) {
	sh, addr := startSmarthost(t)
	sh.tempFail[mail.MustParseAddress("busy@example.com").Key()] = true

	now := time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Now:        func() time.Time { return now },
	})
	q.Enqueue(challengeTo("busy@example.com"))

	// One attempt per rung of the ladder, each rescheduled by its wait.
	for i, wait := range resilience.MTARetrySchedule {
		if n, err := q.Flush(); err != nil || n != 0 {
			t.Fatalf("flush %d = %d, %v", i+1, n, err)
		}
		if q.Stats()[StatusQueued] != 1 {
			t.Fatalf("stats after flush %d = %v", i+1, q.Stats())
		}
		// Not due yet: Flush is a no-op.
		now = now.Add(wait - time.Second)
		if n, _ := q.Flush(); n != 0 || q.Stats()[StatusQueued] != 1 {
			t.Fatalf("premature retry before rung %d", i+1)
		}
		now = now.Add(time.Second)
	}
	// The attempt after the last rung expires the challenge.
	if n, err := q.Flush(); err != nil || n != 1 {
		t.Fatalf("final flush = %d, %v", n, err)
	}
	if q.Stats()[StatusExpired] != 1 {
		t.Fatalf("stats = %v", q.Stats())
	}
}

func TestDialFailureKeepsQueue(t *testing.T) {
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return nil, errors.New("no route") },
		HeloDomain: "cr.corp.example",
	})
	q.Enqueue(challengeTo("alice@example.com"))
	if _, err := q.Flush(); err == nil {
		t.Fatal("dial failure not reported")
	}
	// Item is still queued and due; a later Flush can deliver it.
	if q.Stats()[StatusQueued] != 1 {
		t.Fatalf("stats = %v", q.Stats())
	}
}

func TestSenderIntegratesWithEngineCallback(t *testing.T) {
	_, addr := startSmarthost(t)
	q := newQueue(addr)
	sender := q.Sender()
	sender(challengeTo("alice@example.com"))
	if q.Stats()[StatusQueued] != 1 {
		t.Fatal("Sender did not enqueue")
	}
}

func TestEmptyFlushNoDial(t *testing.T) {
	dialed := false
	q := NewQueue(Config{
		Dial: func() (*smtp.Client, error) {
			dialed = true
			return nil, errors.New("should not dial")
		},
	})
	if n, err := q.Flush(); n != 0 || err != nil {
		t.Fatalf("empty flush = %d, %v", n, err)
	}
	if dialed {
		t.Fatal("Flush dialed with empty queue")
	}
}

func TestRenderChallengeHeaders(t *testing.T) {
	body := RenderChallenge(toSpool(challengeTo("alice@example.com")))
	for _, want := range []string{
		"From: challenge@corp.example",
		"To: alice@example.com",
		"Auto-Submitted: auto-replied",
		"X-CR-Token: tok-xyz",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("RenderChallenge missing %q", want)
		}
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusQueued: "queued", StatusSent: "sent",
		StatusBounced: "bounced", StatusExpired: "expired",
	} {
		if s.String() != want {
			t.Errorf("Status(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestErrorClassesDistinguished(t *testing.T) {
	sh, addr := startSmarthost(t)
	sh.tempFail[mail.MustParseAddress("busy@example.com").Key()] = true
	sh.permFail["ghost@example.com"] = true
	q, tap := journalledQueue(addr)
	local := make(map[string]string) // message ID -> recipient local part
	for _, to := range []string{"busy@example.com", "ghost@example.com", "fine@example.com"} {
		ch := challengeTo(to)
		local[ch.MsgID] = ch.To.Local
		q.Enqueue(ch)
	}

	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each challenge's last record holds its class (Origin) and error
	// (Blob): an attempt record for the retried one, terminal records
	// for the others.
	classes := make(map[string]int)
	for id, who := range local {
		r := tap.last(id)
		if r.Origin != "" {
			classes[r.Origin]++
		}
		switch who {
		case "busy":
			if r.Op != wal.OpSpoolAttempt || r.Origin != ClassTempfail || !strings.HasPrefix(r.Blob, "tempfail: 451") {
				t.Errorf("tempfail item: op=%v class=%q err=%q", r.Op, r.Origin, r.Blob)
			}
		case "ghost":
			if r.Op != wal.OpSpoolBounced || r.Origin != ClassPermfail || !strings.HasPrefix(r.Blob, "permfail: 550") {
				t.Errorf("permfail item: op=%v class=%q err=%q", r.Op, r.Origin, r.Blob)
			}
		case "fine":
			if r.Op != wal.OpSpoolSent || r.Origin != "" || r.Blob != "" {
				t.Errorf("clean item: op=%v class=%q err=%q", r.Op, r.Origin, r.Blob)
			}
		}
	}
	if classes[ClassTempfail] != 1 || classes[ClassPermfail] != 1 || len(classes) != 2 {
		t.Errorf("error classes = %v", classes)
	}
}

func TestExpiredItemRecordsExhaustingClass(t *testing.T) {
	sh, addr := startSmarthost(t)
	sh.tempFail[mail.MustParseAddress("busy@example.com").Key()] = true
	now := time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	tap := &journalTap{}
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Now:        func() time.Time { return now },
		Journal:    tap.emit,
	})
	ch := challengeTo("busy@example.com")
	q.Enqueue(ch)
	attempts := len(resilience.MTARetrySchedule) + 1
	for i := 0; i < attempts; i++ {
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		now = now.Add(25 * time.Hour) // past every rung
	}
	if st := q.Stats(); st[StatusExpired] != 1 || q.SpoolDepth() != 0 {
		t.Fatalf("stats = %v, depth %d; want the one challenge expired", st, q.SpoolDepth())
	}
	r := tap.last(ch.MsgID)
	if r.Op != wal.OpSpoolExpired || r.Origin != ClassTempfail || !strings.HasPrefix(r.Blob, "tempfail:") {
		t.Errorf("expiry record lost its error class: op=%v class=%q err=%q", r.Op, r.Origin, r.Blob)
	}
	if r.Value != int64(attempts) {
		t.Errorf("expired after %d attempts, want %d", r.Value, attempts)
	}
}

func TestInjectedTempfailStorm(t *testing.T) {
	sh, addr := startSmarthost(t)
	inj := faults.New(&faults.Plan{Rules: []faults.Rule{
		{Target: "smarthost", Kind: faults.KindTempfail},
	}}, 1, clock.Real{})
	sp := spool.NewState()
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Injector:   inj,
		Spool:      sp,
	})
	q.Enqueue(challengeTo("alice@example.com"))
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	it := sp.Pending(1)[0]
	if it.Status != StatusQueued || it.LastClass != ClassTempfail || !strings.HasPrefix(it.LastError, "tempfail: 421") {
		t.Fatalf("injected tempfail: status=%v class=%q err=%q", it.Status, it.LastClass, it.LastError)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.accepted) != 0 {
		t.Fatalf("smarthost accepted %d messages during a 100%% tempfail storm", len(sh.accepted))
	}
}

func TestInjectedOutageFailsBeforeDial(t *testing.T) {
	inj := faults.New(&faults.Plan{Rules: []faults.Rule{
		{Target: "smarthost-dial", Kind: faults.KindOutage},
	}}, 1, clock.Real{})
	dialed := false
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { dialed = true; return nil, errors.New("unreachable") },
		HeloDomain: "cr.corp.example",
		Injector:   inj,
	})
	q.Enqueue(challengeTo("alice@example.com"))
	if _, err := q.Flush(); err == nil {
		t.Fatal("injected outage not reported")
	}
	if dialed {
		t.Fatal("dial attempted during injected outage")
	}
	if q.Stats()[StatusQueued] != 1 {
		t.Fatalf("stats = %v", q.Stats())
	}
}

func TestBoundedQueueDefersOverflow(t *testing.T) {
	sh, addr := startSmarthost(t)
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		MaxQueued:  2,
	})
	for i := 0; i < 5; i++ {
		q.Enqueue(challengeTo(fmt.Sprintf("sender%d@example.com", i)))
	}
	if got := q.Deferred(); got != 3 {
		t.Fatalf("Deferred = %d, want 3", got)
	}
	if got := q.Stats()[StatusQueued]; got != 2 {
		t.Fatalf("queued = %d, want 2 (bounded)", got)
	}
	// Each Flush delivers the oldest pending challenges and the deferred
	// ones move up: nothing is ever dropped, generation is just
	// time-shifted.
	for i := 0; i < 3; i++ {
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Deferred(); got != 0 {
		t.Fatalf("Deferred after flushes = %d, want 0", got)
	}
	if got := q.Stats()[StatusSent]; got != 5 {
		t.Fatalf("sent = %d, want all 5", got)
	}
	if got := len(sh.accepted); got != 5 {
		t.Fatalf("smarthost saw %d messages, want 5", got)
	}
	// FIFO: the deferred challenges arrive in enqueue order.
	for i, m := range sh.accepted {
		want := fmt.Sprintf("sender%d@example.com", i)
		if m.Rcpt.String() != want {
			t.Fatalf("delivery %d went to %s, want %s", i, m.Rcpt, want)
		}
	}
}

func TestFlushAllIgnoresRetryTimers(t *testing.T) {
	sh, addr := startSmarthost(t)
	sh.tempFail[mail.MustParseAddress("busy@example.com").Key()] = true
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
	})
	q.Enqueue(challengeTo("busy@example.com"))
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats()[StatusQueued]; got != 1 {
		t.Fatalf("queued = %d, want 1 (rescheduled)", got)
	}
	// A normal Flush skips the item (NextTry is in the future); the
	// drain path's FlushAll attempts it anyway.
	if n, _ := q.Flush(); n != 0 {
		t.Fatalf("Flush attempted a not-yet-due item (%d terminal)", n)
	}
	sh.tempFail = map[string]bool{}
	if _, err := q.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats()[StatusSent]; got != 1 {
		t.Fatalf("sent = %d, want 1 after FlushAll", got)
	}
}

// TestOverlappingFlushesSendOnce: a FlushAll that starts while a Flush
// is mid-session (crserver's drain racing its flush ticker) waits for
// it, instead of sending the same pending challenges a second time.
func TestOverlappingFlushesSendOnce(t *testing.T) {
	sh := &holdingSmarthost{held: make(chan struct{}), release: make(chan struct{})}
	addr := serve(t, sh)
	dials := make(chan struct{}, 2) // one per flush at most
	q := NewQueue(Config{
		Dial: func() (*smtp.Client, error) {
			dials <- struct{}{}
			return smtp.Dial(addr, 2*time.Second)
		},
		HeloDomain: "cr.corp.example",
	})
	for i := 0; i < 3; i++ {
		q.Enqueue(challengeTo(fmt.Sprintf("u%d@example.com", i)))
	}
	errs := make(chan error, 2)
	go func() { _, err := q.Flush(); errs <- err }()
	<-sh.held
	<-dials
	go func() { _, err := q.FlushAll(); errs <- err }()
	// A second session opened while the first holds its DATA would
	// resend every challenge the first has not finished.
	select {
	case <-dials:
	case <-time.After(200 * time.Millisecond):
	}
	close(sh.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	seen := make(map[string]bool)
	for _, m := range sh.accepted {
		seen[m.Subject] = true
	}
	if len(sh.accepted) != 3 || len(seen) != 3 {
		t.Fatalf("smarthost got %d deliveries of %d challenges, want each of 3 once", len(sh.accepted), len(seen))
	}
}

// TestFinishedChallengesHoldNoHeap: once a challenge has reached its
// fate, the queue keeps nothing of it — the spool is the only
// per-challenge state. Measured as the collected heap with and without
// the queue, the spool and the smarthost's copies alive in both.
func TestFinishedChallengesHoldNoHeap(t *testing.T) {
	const n = 10000
	sh, addr := startSmarthost(t)
	sp := spool.NewState()
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Spool:      sp,
	})
	for i := 0; i < n; i++ {
		q.Enqueue(challengeTo(fmt.Sprintf("u%d@example.com", i)))
	}
	if got, err := q.FlushAll(); err != nil || got != n {
		t.Fatalf("FlushAll = %d, %v; want %d", got, err, n)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	with := heap()
	runtime.KeepAlive(q)
	q = nil
	without := heap()
	runtime.KeepAlive(sp)
	runtime.KeepAlive(sh)
	if per := float64(with-without) / n; per > 16 {
		t.Fatalf("queue holds %.0f B per finished challenge, want at most 16", per)
	}
}

// downQueue is a queue at MaxQueued 1000 over a spool holding n pending
// challenges, whose smarthost refuses every dial: each Flush reads the
// spool and groups its candidates, then stops at the dial, so flushes
// repeat exactly.
func downQueue(n int) *Queue {
	q := NewQueue(Config{
		Dial:      func() (*smtp.Client, error) { return nil, errors.New("smarthost down") },
		MaxQueued: 1000,
		Now:       func() time.Time { return time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC) },
	})
	for i := 0; i < n; i++ {
		ch := challengeTo(fmt.Sprintf("u%d@d%d.example", i, i%20))
		ch.MsgID = fmt.Sprintf("q-%06d", i)
		q.Enqueue(ch)
	}
	return q
}

// TestFlushCostFlatInPending: a Flush at MaxQueued 1000 allocates the
// same objects and bytes with 1,000 or 50,000 challenges pending; only
// the 1000 it considers are copied out of the spool.
func TestFlushCostFlatInPending(t *testing.T) {
	cost := func(n int) (allocs, bytes float64) {
		q := downQueue(n)
		allocs = testing.AllocsPerRun(5, func() { q.Flush() }) //nolint:errcheck
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5; i++ {
			q.Flush() //nolint:errcheck
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 5
	}
	smallAllocs, smallBytes := cost(1000)
	bigAllocs, bigBytes := cost(50000)
	t.Logf("per Flush: %.0f allocs, %.0f B at 1,000 pending; %.0f allocs, %.0f B at 50,000", smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs > smallAllocs+5 || bigBytes > 1.2*smallBytes {
		t.Fatalf("a Flush over 50,000 pending costs %.0f allocs and %.0f B, over 1,000 %.0f and %.0f", bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
}

// TestStatsFlatInDone: Stats reads running fate counts, so its cost does
// not grow with the number of challenges that reached their fate.
func TestStatsFlatInDone(t *testing.T) {
	cost := func(n int) time.Duration {
		sp := spool.NewState()
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("q-%06d", i)
			sp.ApplyEnqueue(spool.Challenge{MsgID: id, To: mail.Address{Local: "u", Domain: "x.example"}}, 0)
			sp.ApplyTerminal(id, spool.StatusSent, 1, 0)
		}
		q := NewQueue(Config{Dial: func() (*smtp.Client, error) { return nil, errors.New("unused") }, Spool: sp})
		if got := q.Stats()[StatusSent]; got != n {
			t.Fatalf("Stats counts %d sent, want %d", got, n)
		}
		best := time.Hour
		for i := 0; i < 200; i++ {
			start := time.Now()
			q.Stats()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	small, big := cost(10), cost(100000)
	t.Logf("fastest Stats: %v at 10 done, %v at 100,000", small, big)
	if big > 20*small+10*time.Microsecond {
		t.Fatalf("Stats takes %v at 100,000 done, %v at 10", big, small)
	}
}
