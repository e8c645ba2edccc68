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
	"repro/internal/resilience"
	"repro/internal/smtp"
	"repro/internal/spool"
	"repro/internal/wal"
)

// darkInjector fails every delivery to the domains in dark, via the
// queue's "domain:<name>" fault target, and can heal mid-test.
type darkInjector struct {
	mu   sync.Mutex
	dark map[string]bool
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
	if name, ok := strings.CutPrefix(target, "domain:"); ok && d.dark[name] {
		return faults.Decision{Kind: faults.KindTempfail}
	}
	return faults.Decision{}
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

// day is past every rung of resilience.MTARetrySchedule and the
// breaker's open window, so a flush a day later finds every timer due.
const day = 25 * time.Hour

// TestDarkDomainBreakerLifecycle drives one domain's circuit breaker
// through closed → open → half-open (single probe) → closed on a
// virtual clock.
func TestDarkDomainBreakerLifecycle(t *testing.T) {
	sh, addr := startSmarthost(t)
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
	for i := 0; i < 4; i++ {
		q.Enqueue(challengeTo(fmt.Sprintf("victim%d@dark.example", i)))
	}

	// Five failing rounds trip the breaker (each round attempts one
	// item, fails on the domain fault, and abandons the batch).
	threshold := resilience.DefaultBreakerConfig().FailureThreshold
	for i := 0; i < threshold; i++ {
		if i > 0 {
			now = now.Add(day)
		}
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ds := q.DomainStats()
	if len(ds) != 1 || ds[0].Domain != "dark.example" {
		t.Fatalf("domains = %+v", ds)
	}
	if ds[0].Breaker.State != resilience.Open || ds[0].Breaker.Trips != 1 || ds[0].FailStreak != threshold {
		t.Fatalf("after %d failures: %+v", threshold, ds[0])
	}
	if ds[0].LastError == "" || ds[0].RetryAt.IsZero() {
		t.Fatalf("ledger missing error state: %+v", ds[0])
	}

	// While open the domain is skipped entirely — not even a dial, even
	// by a FlushAll, which ignores the retry ladder.
	dials = 0
	if _, err := q.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dials != 0 {
		t.Fatalf("dialed %d time(s) for an open-breaker domain", dials)
	}

	// Past the open window a healed domain gets exactly one probe.
	inj.set("dark.example", false)
	now = now.Add(day)
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sentTo(sh)["dark.example"]; got != 1 {
		t.Fatalf("half-open flush delivered %d, want exactly 1 probe", got)
	}
	ds = q.DomainStats()
	if ds[0].Breaker.State != resilience.Closed || ds[0].FailStreak != 0 {
		t.Fatalf("after successful probe: %+v", ds[0])
	}

	// Closed again: the rest of the backlog drains in one flush.
	now = now.Add(day)
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sentTo(sh)["dark.example"]; got != 4 {
		t.Fatalf("delivered %d of 4 after recovery", got)
	}
	if got := q.Stats()[StatusSent]; got != 4 {
		t.Fatalf("sent = %d", got)
	}
}

// TestHalfOpenProbeFailureReopens: a failing probe re-opens the breaker
// without burning the rest of the backlog.
func TestHalfOpenProbeFailureReopens(t *testing.T) {
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
	q.Enqueue(challengeTo("victim@dark.example"))
	q.Enqueue(challengeTo("victim2@dark.example"))
	for i := 0; i < resilience.DefaultBreakerConfig().FailureThreshold; i++ {
		if i > 0 {
			now = now.Add(day)
		}
		if _, err := q.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := q.DomainStats()[0].Breaker; st.State != resilience.Open {
		t.Fatalf("breaker = %+v, want open", st)
	}
	// Probe while still dark: breaker must trip straight back to open.
	// The probe is the first challenge's sixth attempt, past the last
	// rung, so it expires; the second was never attempted and waits.
	now = now.Add(day)
	if _, err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	st := q.DomainStats()[0].Breaker
	if st.State != resilience.Open || st.Trips != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}
	if got := q.Stats(); got[StatusQueued] != 1 || got[StatusExpired] != 1 {
		t.Fatalf("stats = %v, want 1 queued (untouched) and 1 expired", got)
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
	it := sp2.Pending(1)[0]
	if it.Challenge.MsgID == "" || it.Attempts != 1 || it.LastClass != ClassTempfail {
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
	for i := 0; i < 3; i++ {
		sp.ApplyEnqueue(toSpool(challengeTo(fmt.Sprintf("u%d@example.com", i))), uint64(i+1))
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
		pending := sp.Pending(0)
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
	if got := q.Stats()[StatusSent]; got != 1 {
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
	if got := q.Stats()[StatusSent]; got != 40 {
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
