package outbound

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/faults/seam"
	"repro/internal/mail"
	"repro/internal/resilience"
	"repro/internal/smtp"
	"repro/internal/spool"
	"repro/internal/wal"
)

// darkInjector fails every delivery to the domains in dark, via the
// queue's "domain:<name>" fault target, and can heal mid-test. tries
// counts the delivery attempts per domain.
type darkInjector struct {
	mu    sync.Mutex
	dark  map[string]bool
	tries map[string]int
}

func (d *darkInjector) set(domain string, failing bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dark == nil {
		d.dark = make(map[string]bool)
	}
	d.dark[domain] = failing
}

func (d *darkInjector) Decide(target string, _ time.Duration) faults.Decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	name, ok := strings.CutPrefix(target, "domain:")
	if !ok {
		return faults.Decision{}
	}
	if d.tries == nil {
		d.tries = make(map[string]int)
	}
	d.tries[name]++
	if d.dark[name] {
		return faults.Decision{Kind: faults.KindTempfail}
	}
	return faults.Decision{}
}

func (d *darkInjector) triesTo(domain string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tries[domain]
}

// attempts returns the attempt counts of q's pending items.
func attempts(q *Queue) []int {
	var out []int
	for _, it := range q.cfg.Spool.Pending(0, nil) {
		out = append(out, it.Attempts)
	}
	return out
}

// sentTo counts smarthost deliveries per destination domain.
func sentTo(sh *smarthost) map[string]int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[string]int)
	for _, m := range sh.accepted {
		out[m.Rcpt.Domain]++
	}
	return out
}

// TestDarkDomainDoesNotStallHealthy is the head-of-line-blocking
// acceptance check: with one destination domain dark, challenge
// throughput to healthy domains must stay within 10% of a fault-free
// baseline run (here it is identical — the dark batch is skipped after
// its first failure, never serialised in front of healthy domains).
func TestDarkDomainDoesNotStallHealthy(t *testing.T) {
	const n = 20
	run := func(injected bool) int {
		sh, addr := startSmarthost(t)
		cfg := Config{
			Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
			HeloDomain: "cr.corp.example",
		}
		if injected {
			inj := &darkInjector{}
			inj.set("dark.example", true)
			cfg.Injector = inj
		}
		q := NewQueue(cfg)
		for i := 0; i < n; i++ {
			q.Enqueue(challengeTo(fmt.Sprintf("victim%d@dark.example", i)))
			q.Enqueue(challengeTo(fmt.Sprintf("sender%d@healthy.example", i)))
		}
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		if injected {
			if got := sentTo(sh)["dark.example"]; got != 0 {
				t.Fatalf("dark domain accepted %d deliveries under a 100%% fault", got)
			}
			if got := q.Stats()[StatusQueued]; got != n {
				t.Fatalf("dark items queued = %d, want %d (retrying, not lost)", got, n)
			}
		}
		return sentTo(sh)["healthy.example"]
	}
	baseline := run(false)
	faulted := run(true)
	if baseline != n {
		t.Fatalf("baseline healthy deliveries = %d, want %d", baseline, n)
	}
	if float64(faulted) < 0.9*float64(baseline) {
		t.Fatalf("healthy throughput %d fell below 90%% of baseline %d with a dark domain", faulted, baseline)
	}
}

// TestDomainLadderRungs: the k-th consecutive failure of a domain holds
// the whole domain for the k-th rung of resilience.MTARetrySchedule,
// capped at the last; a flush one second early does not touch it, and
// one success resets the streak.
func TestDomainLadderRungs(t *testing.T) {
	_, addr := startSmarthost(t)
	now := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	inj := &darkInjector{}
	inj.set("dark.example", true)
	dials := 0
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { dials++; return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Injector:   inj,
		Now:        func() time.Time { return now },
	})
	sched := resilience.MTARetrySchedule
	// Enough items that the domain outlives the first one's expiry and
	// climbs past the last rung.
	for i := 0; i < len(sched)+3; i++ {
		q.Enqueue(challengeTo(fmt.Sprintf("victim%d@dark.example", i)))
	}
	for k := 1; k <= len(sched)+2; k++ {
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		ds := q.DomainStats()[0]
		rung := sched[min(k, len(sched))-1]
		if ds.FailStreak != k || !ds.RetryAt.Equal(now.Add(rung)) || ds.LastError == "" {
			t.Fatalf("failure %d: %+v, want streak %d held for %v", k, ds, k, rung)
		}
		before := fmt.Sprint(attempts(q))
		now = ds.RetryAt.Add(-time.Second)
		dials = 0
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		if after := fmt.Sprint(attempts(q)); dials != 0 || after != before {
			t.Fatalf("failure %d: a flush 1s before the rung ended dialed %d time(s), attempts %s -> %s", k, dials, before, after)
		}
		now = ds.RetryAt
	}

	inj.set("dark.example", false)
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if ds := q.DomainStats()[0]; ds.FailStreak != 0 || !ds.RetryAt.IsZero() || ds.LastError != "" {
		t.Fatalf("after a success: %+v, want a reset ladder", ds)
	}
	// The next failure starts again from the first rung.
	inj.set("dark.example", true)
	q.Enqueue(challengeTo("late@dark.example"))
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if ds := q.DomainStats()[0]; ds.FailStreak != 1 || !ds.RetryAt.Equal(now.Add(sched[0])) {
		t.Fatalf("first failure after a reset: %+v, want streak 1 held for %v", ds, sched[0])
	}
}

// TestDarkDomainLadderLifecycle: a still-dark domain costs one attempt
// per flush — the ladder's and the drain's alike, past any failure
// count — and once healed it drains its whole backlog in the first
// flush its rung allows.
func TestDarkDomainLadderLifecycle(t *testing.T) {
	sh, addr := startSmarthost(t)
	now := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	inj := &darkInjector{}
	inj.set("dark.example", true)
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Injector:   inj,
		Now:        func() time.Time { return now },
	})
	for i := 0; i < 4; i++ {
		q.Enqueue(challengeTo(fmt.Sprintf("victim%d@dark.example", i)))
	}

	// Six failures: each round a ladder flush when the rung ends, then a
	// drain at once. The sixth expires the first challenge.
	for round := 0; round < 3; round++ {
		for _, flush := range []func() (int, error){q.Flush, q.FlushAll} {
			tries := inj.triesTo("dark.example")
			if _, err := flush(); err != nil {
				t.Fatal(err)
			}
			if got := inj.triesTo("dark.example") - tries; got != 1 {
				t.Fatalf("round %d: a flush of the dark domain tried %d item(s), want 1", round, got)
			}
		}
		now = q.DomainStats()[0].RetryAt
	}
	if got := q.Stats(); got[StatusQueued] != 3 || got[statusExpired] != 1 {
		t.Fatalf("stats = %v, want 3 queued and 1 expired", got)
	}

	// Healed, but one second inside its rung: still held.
	inj.set("dark.example", false)
	now = now.Add(-time.Second)
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sentTo(sh)["dark.example"]; got != 0 {
		t.Fatalf("delivered %d while the rung held the domain", got)
	}
	now = now.Add(time.Second)
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sentTo(sh)["dark.example"]; got != 3 || q.SpoolDepth() != 0 {
		t.Fatalf("first flush after recovery delivered %d of 3, %d left", got, q.SpoolDepth())
	}
	if ds := q.DomainStats()[0]; ds.FailStreak != 0 || ds.Sent != 3 || ds.Expired != 1 {
		t.Fatalf("after recovery: %+v", ds)
	}
}

// TestFailingDomainKeepsBacklog: a failing domain spends one challenge's
// attempts, not its backlog's; the untried challenges keep no attempt
// until the first has expired.
func TestFailingDomainKeepsBacklog(t *testing.T) {
	_, addr := startSmarthost(t)
	now := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	inj := &darkInjector{}
	inj.set("dark.example", true)
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Injector:   inj,
		Now:        func() time.Time { return now },
	})
	for i := 0; i < 3; i++ {
		q.Enqueue(challengeTo(fmt.Sprintf("victim%d@dark.example", i)))
	}
	for k := 1; k <= len(resilience.MTARetrySchedule); k++ {
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(attempts(q)); got != fmt.Sprintf("[%d 0 0]", k) {
			t.Fatalf("after %d failing flush(es): attempts %s, want one item at %d and two untried", k, got, k)
		}
		now = q.DomainStats()[0].RetryAt
	}
	// The next attempt is the first challenge's last: it expires, and the
	// other two are still untried.
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats(); got[StatusQueued] != 2 || got[statusExpired] != 1 {
		t.Fatalf("stats = %v, want 2 queued and 1 expired", got)
	}
	if got := fmt.Sprint(attempts(q)); got != "[0 0]" {
		t.Fatalf("untried challenges' attempts = %s, want [0 0]", got)
	}
}

// TestTempfailingDomainRetriesEveryDueItem: a smarthost that answers 4xx
// per item is no domain fault, so however long the streak, each flush
// its rung allows tries every due item.
func TestTempfailingDomainRetriesEveryDueItem(t *testing.T) {
	sh, addr := startSmarthost(t)
	now := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Now:        func() time.Time { return now },
	})
	for i := 0; i < 3; i++ {
		rcpt := fmt.Sprintf("busy%d@busy.example", i)
		sh.tempFail[mail.MustParseAddress(rcpt).Key()] = true
		q.Enqueue(challengeTo(rcpt))
	}
	for k := 1; k <= 3; k++ {
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(attempts(q)), fmt.Sprintf("[%d %d %d]", k, k, k); got != want {
			t.Fatalf("flush %d: attempts %s, want %s", k, got, want)
		}
		if ds := q.DomainStats()[0]; ds.FailStreak != 3*k {
			t.Fatalf("flush %d: fail streak %d, want %d", k, ds.FailStreak, 3*k)
		}
		now = q.DomainStats()[0].RetryAt
	}
}

// journalTap is a test WAL sink: an in-memory append log with LSNs.
type journalTap struct {
	mu   sync.Mutex
	recs []wal.Record
}

func (j *journalTap) emit(r wal.Record) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	r.LSN = uint64(len(j.recs) + 1)
	j.recs = append(j.recs, r)
	return r.LSN
}

func (j *journalTap) records() []wal.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]wal.Record(nil), j.recs...)
}

// last returns the last record journalled for msgID.
func (j *journalTap) last(msgID string) wal.Record {
	recs := j.records()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].User == msgID {
			return recs[i]
		}
	}
	return wal.Record{}
}

// TestJournalReplayRebuildsQueue is the restart path: fold the journal
// into a fresh spool, build a new queue over it, and finish delivery
// without double-sending anything already acked by the smarthost.
func TestJournalReplayRebuildsQueue(t *testing.T) {
	sh, addr := startSmarthost(t)
	sh.permFail["gone@example.com"] = true
	sh.tempFail["busy@example.com"] = true
	tap := &journalTap{}
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Spool:      spool.NewState(),
		Journal:    tap.emit,
	})
	chOK := challengeTo("ok@example.com")
	q.Enqueue(chOK)
	q.Enqueue(challengeTo("gone@example.com"))
	q.Enqueue(challengeTo("busy@example.com"))
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := q.SpoolDepth(); d != 1 {
		t.Fatalf("spool depth after flush = %d, want 1 (only the tempfailed item)", d)
	}

	// "Crash": rebuild state purely from the journal.
	sp2 := spool.NewState()
	for _, r := range tap.records() {
		if err := sp2.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	if st, ok := fate(sp2, chOK.MsgID); !ok {
		t.Fatal("sent challenge lost by replay")
	} else if st != spool.StatusSent.String() {
		t.Fatalf("fate = %v", st)
	}

	q2 := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Spool:      sp2,
	})
	if d := q2.SpoolDepth(); d != 1 {
		t.Fatalf("recovered spool depth = %d, want 1", d)
	}
	it := sp2.Pending(1, nil)[0]
	if it.Challenge.MsgID == "" || it.Attempts != 1 || it.LastClass != classTempfail {
		t.Fatalf("recovered item lost its attempt state: %+v", it)
	}
	sh.tempFail = map[string]bool{}
	if _, err := q2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := sentTo(sh)
	// ok@ was delivered exactly once (before the crash); busy@ exactly
	// once (after); gone@ never.
	if got["example.com"] != 2 {
		t.Fatalf("deliveries = %v, want exactly 2 to example.com", got)
	}
}

// TestQueueOverRecoveredSpool: a queue built over a spool that already
// holds pending challenges (what store.Recover rebuilds) counts them and
// delivers them, with no call in between.
func TestQueueOverRecoveredSpool(t *testing.T) {
	sh, addr := startSmarthost(t)
	sp := spool.NewState()
	var lsn uint64
	rec := &spool.Recorder{State: sp, Emit: func(wal.Record) uint64 { lsn++; return lsn }}
	for i := 0; i < 3; i++ {
		rec.Enqueue(time.Now(), toSpool(challengeTo(fmt.Sprintf("u%d@example.com", i))))
	}
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		MaxQueued:  2,
		Spool:      sp,
	})
	if d := q.SpoolDepth(); d != 3 || d != sp.Len() {
		t.Fatalf("SpoolDepth = %d, spool holds %d; want 3", d, sp.Len())
	}
	if queued, deferred := q.Stats()[StatusQueued], q.Deferred(); queued != 2 || deferred != 1 {
		t.Fatalf("queued %d + deferred %d, want 2 + 1", queued, deferred)
	}
	if ds := q.DomainStats(); len(ds) != 1 || ds[0].Domain != "example.com" || ds[0].Queued != 3 {
		t.Fatalf("DomainStats = %+v, want example.com with 3 queued", ds)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sentTo(sh)["example.com"]; got != 3 || q.SpoolDepth() != 0 {
		t.Fatalf("delivered %d, %d left in the spool; want 3, 0", got, q.SpoolDepth())
	}
}

// TestCrashAtEveryTransition truncates the journal at every prefix —
// simulating a crash between any two journalled transitions — and
// verifies the invariant the durable spool exists for: every enqueued
// challenge is accounted for (pending or terminal) after replay, no
// challenge the smarthost acked is ever re-sent, and a fresh queue can
// always drive the remainder to completion.
func TestCrashAtEveryTransition(t *testing.T) {
	// Scripted first life: 3 challenges, one clean send, one bounce,
	// one tempfail-then-send.
	sh, addr := startSmarthost(t)
	sh.permFail["gone@example.com"] = true
	sh.tempFail["busy@example.com"] = true
	tap := &journalTap{}
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Spool:      spool.NewState(),
		Journal:    tap.emit,
	})
	q.Enqueue(challengeTo("ok@example.com"))
	q.Enqueue(challengeTo("gone@example.com"))
	q.Enqueue(challengeTo("busy@example.com"))
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	sh.tempFail = map[string]bool{}
	if _, err := q.FlushAll(); err != nil {
		t.Fatal(err)
	}
	recs := tap.records()
	if len(recs) < 6 {
		t.Fatalf("script journalled only %d records", len(recs))
	}

	for k := 0; k <= len(recs); k++ {
		sp := spool.NewState()
		enqueued := make(map[string]bool)
		acked := make(map[string]bool)
		for _, r := range recs[:k] {
			if err := sp.Apply(r); err != nil {
				t.Fatal(err)
			}
			switch r.Op {
			case wal.OpSpoolEnqueue:
				enqueued[r.User] = true
			case wal.OpSpoolSent:
				acked[r.User] = true
			}
		}
		// Accounting: nothing enqueued before the crash vanishes.
		pending := sp.Pending(0, nil)
		accounted := len(pending)
		for id := range enqueued {
			if _, ok := fate(sp, id); ok {
				accounted++
			}
		}
		if accounted != len(enqueued) {
			t.Fatalf("prefix %d: %d enqueued, %d accounted for", k, len(enqueued), accounted)
		}
		// Second life: a fresh queue finishes the job without
		// re-sending anything the smarthost already acked.
		sh2, addr2 := startSmarthost(t)
		sh2.permFail["gone@example.com"] = true
		q2 := NewQueue(Config{
			Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr2, 2*time.Second) },
			HeloDomain: "cr.corp.example",
			Spool:      sp,
		})
		if d := q2.SpoolDepth(); d != len(pending) {
			t.Fatalf("prefix %d: spool depth = %d, want %d", k, d, len(pending))
		}
		if _, err := q2.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if got := q2.SpoolDepth(); got != 0 {
			t.Fatalf("prefix %d: %d challenge(s) stuck after recovery flush", k, got)
		}
		sh2.mu.Lock()
		for _, m := range sh2.accepted {
			// The challenge subject embeds the original message ID.
			for id := range acked {
				if strings.Contains(m.Subject, "("+id+")") {
					t.Fatalf("prefix %d: re-sent already-acked challenge %s to %s", k, id, m.Rcpt)
				}
			}
		}
		sh2.mu.Unlock()
	}
}

// TestWalSpoolFaultDropsAppendsFailOpen: the "wal-spool" fault
// starves the spool journal, and the queue keeps delivering —
// durability degrades, the mail path does not.
func TestWalSpoolFaultDropsAppendsFailOpen(t *testing.T) {
	sh, addr := startSmarthost(t)
	set := faults.New(&faults.Plan{Rules: []faults.Rule{
		{Target: "wal-spool", Kind: faults.KindError},
	}}, 1, clock.Real{})
	tap := &journalTap{}
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Spool:      spool.NewState(),
		Journal:    seam.Journal(tap.emit, set),
	})
	q.Enqueue(challengeTo("alice@example.com"))
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats()[statusSent]; got != 1 {
		t.Fatalf("sent = %d — a journal fault must not block delivery", got)
	}
	if len(sh.accepted) != 1 {
		t.Fatalf("smarthost accepted %d", len(sh.accepted))
	}
	if len(tap.records()) != 0 {
		t.Fatalf("journal got %d record(s) under a 100%% wal-spool fault", len(tap.records()))
	}
	if got := q.JournalDropped(); got != 2 {
		t.Fatalf("dropped appends = %d, want 2 (enqueue + terminal)", got)
	}
	// The in-memory spool still folded both transitions.
	if st := q.Stats(); q.SpoolDepth() != 0 || len(st) != 1 {
		t.Fatalf("spool pending=%d stats=%v", q.SpoolDepth(), st)
	}
}

// TestConcurrentEnqueueFlush exercises the queue's locking under the
// race detector: producers enqueue while a consumer flushes.
func TestConcurrentEnqueueFlush(t *testing.T) {
	_, addr := startSmarthost(t)
	tap := &journalTap{}
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Spool:      spool.NewState(),
		Journal:    tap.emit,
	})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q.Enqueue(challengeTo(fmt.Sprintf("u%d-%d@example.com", p, i)))
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if _, err := q.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if _, err := q.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats()[statusSent]; got != 40 {
		t.Fatalf("sent = %d, want 40", got)
	}
	if d := q.SpoolDepth(); d != 0 {
		t.Fatalf("spool depth = %d", d)
	}
}

// fate returns the terminal status the spool's snapshot records for
// msgID.
func fate(s *spool.State, msgID string) (string, bool) {
	for _, d := range s.Export().Done {
		if d.MsgID == msgID {
			return d.Status, true
		}
	}
	return "", false
}

// TestDarkDomainCannotFillTheWindow: with MaxQueued 2, two challenges
// to a dark domain and then one to a healthy domain, the dark domain's
// held challenges leave the window to the healthy one, which the
// second flush, 30 s after the first, delivers. Deferred still counts
// the pending challenges beyond the bound.
func TestDarkDomainCannotFillTheWindow(t *testing.T) {
	sh, addr := startSmarthost(t)
	now := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	inj := &darkInjector{}
	inj.set("dark.example", true)
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Injector:   inj,
		MaxQueued:  2,
		Now:        func() time.Time { return now },
	})
	for i, rcpt := range []string{"a@dark.example", "b@dark.example", "c@healthy.example"} {
		ch := challengeTo(rcpt)
		ch.Issued = now.Add(time.Duration(i-3) * time.Second)
		q.Enqueue(ch)
	}
	if q.Deferred() != 1 {
		t.Fatalf("Deferred = %d, want 1", q.Deferred())
	}
	for flush := 1; flush <= 2; flush++ {
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
		now = now.Add(30 * time.Second)
	}
	if got := sentTo(sh)["healthy.example"]; got != 1 {
		t.Fatalf("healthy deliveries after two flushes = %d, want 1 (attempts %v)", got, attempts(q))
	}
	if got := fmt.Sprint(attempts(q)); got != "[1 0]" || inj.triesTo("dark.example") != 1 {
		t.Fatalf("dark attempts %s over %d tries, want [1 0] over 1", got, inj.triesTo("dark.example"))
	}
}

// TestDrainReachesHealthyBehindDarkBacklog: with MaxQueued 2, two
// challenges to a dark domain and then one to a healthy domain, a drain
// loop written like crserver's (FlushAll until nothing is left or a
// pass makes no progress) delivers the healthy one: the dark backlog
// costs each pass one attempt and does not stall the drain before it.
func TestDrainReachesHealthyBehindDarkBacklog(t *testing.T) {
	sh, addr := startSmarthost(t)
	now := time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC)
	inj := &darkInjector{}
	inj.set("dark.example", true)
	q := NewQueue(Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(addr, 2*time.Second) },
		HeloDomain: "cr.corp.example",
		Injector:   inj,
		MaxQueued:  2,
		Now:        func() time.Time { return now },
	})
	for i, rcpt := range []string{"a@dark.example", "b@dark.example", "c@healthy.example"} {
		ch := challengeTo(rcpt)
		ch.Issued = now.Add(time.Duration(i-3) * time.Second)
		q.Enqueue(ch)
	}
	for pass := 1; ; pass++ {
		n, err := q.FlushAll()
		if err != nil {
			t.Fatal(err)
		}
		if q.Stats()[StatusQueued]+q.Deferred() == 0 || n == 0 || pass == 10 {
			break
		}
	}
	if got := sentTo(sh)["healthy.example"]; got != 1 {
		t.Fatalf("healthy deliveries after the drain = %d, want 1 (dark tries %d)", got, inj.triesTo("dark.example"))
	}
	if got := q.SpoolDepth(); got != 2 {
		t.Fatalf("%d challenges left after the drain, want the 2 to the dark domain", got)
	}
}
