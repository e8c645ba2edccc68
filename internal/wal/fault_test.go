package wal_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/faults/seam"
	"repro/internal/mail"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// TestFaultInjection drives the WAL's fault targets through the seams
// crserver wires: "wal-append" around the journal's appender and
// "wal-fsync" as the flush's fsync hook. Each rule holds for the
// first hour of the set's clock, so a test ends a fault by advancing it.
func TestFaultInjection(t *testing.T) {
	t0 := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	firstHour := func(target string) (*faults.Set, *clock.Sim) {
		clk := clock.NewSim(t0)
		plan := &faults.Plan{Rules: []faults.Rule{{Target: target, Kind: faults.KindError, UntilHour: 1}}}
		return faults.New(plan, 1, clk), clk
	}
	user := mail.MustParseAddress("alice@corp.example")

	t.Run("append", func(t *testing.T) {
		set, clk := firstHour("wal-append")
		l, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Manual: true}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		app := seam.Appender(l, set)
		if _, err := app.Append(wal.Record{Op: wal.OpWhiteAdd}); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("Append under fault = %v, want the injected error", err)
		}
		j := wal.NewJournal(app)
		var tapped []wal.Record
		j.SetTap(func(r wal.Record) { tapped = append(tapped, r) })
		wl := whitelist.NewStore(clk)
		j.Attach(wl)

		if lsn := j.Emit(wal.Record{Op: wal.OpWhiteAdd}); lsn != 0 {
			t.Fatalf("Emit under fault = LSN %d, want 0", lsn)
		}
		bob := mail.MustParseAddress("bob@example.com")
		wl.AddWhite(user, bob, whitelist.SourceDigest)
		if !wl.IsWhite(user, bob) {
			t.Fatal("a dropped append also dropped the whitelist mutation")
		}
		if len(tapped) != 0 || l.LastLSN() != 0 {
			t.Fatalf("dropped appends reached the log: tapped %d, last LSN %d", len(tapped), l.LastLSN())
		}
		if got := set.Counts()["wal-append/error"]; got != 3 {
			t.Fatalf("wal-append fired %d times, want 3", got)
		}

		clk.Advance(time.Hour)
		wl.AddWhite(user, mail.MustParseAddress("carol@example.com"), whitelist.SourceDigest)
		if len(tapped) != 1 || tapped[0].LSN != 1 || l.LastLSN() != 1 {
			t.Fatalf("after the fault: tapped %v, last LSN %d; want one record at LSN 1", tapped, l.LastLSN())
		}
	})

	// A failed fsync fails the log for good: a later fsync could report
	// success over pages the failed one dropped, so nothing becomes
	// durable after it, even once the fault has ended.
	failedForGood := func(t *testing.T, l *wal.Log, clk *clock.Sim) {
		t.Helper()
		clk.Advance(time.Hour)
		if err := l.Sync(); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("Sync after the fault ended = %v, want the first failure", err)
		}
		if _, err := l.Append(wal.Record{Op: wal.OpWhiteAdd}); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("Append on a failed log = %v, want the first failure", err)
		}
		if err := l.Rotate(); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("Rotate on a failed log = %v, want the first failure", err)
		}
		if m := l.Metrics(); m.DurableLSN != 0 || m.LastLSN != 1 || m.FsyncErrors != 1 || m.Fsyncs != 0 {
			t.Fatalf("after the fault: %+v, want durable LSN 0 of 1, one fsync error, no fsync", m)
		}
		if err := l.Close(); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("Close on a failed log = %v, want the first failure", err)
		}
	}

	t.Run("fsync", func(t *testing.T) {
		set, clk := firstHour("wal-fsync")
		hook := seam.Fsync(set, "wal-fsync")
		calls := 0
		l, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Manual: true, Fsync: func(f *os.File) error {
			calls++
			return hook(f)
		}}, 0, nil)
		if err != nil {
			t.Fatalf("Open under an fsync fault: %v (the segment header's fsync must not consult the hook)", err)
		}
		if calls != 0 {
			t.Fatalf("Open called the fsync hook %d times, want 0", calls)
		}
		if _, err := l.Append(wal.Record{Op: wal.OpWhiteAdd}); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("Sync under fsync fault = %v, want the injected error", err)
		}
		failedForGood(t, l, clk)
		if calls != 1 {
			t.Fatalf("fsync hook called %d times, want 1: a failed log fsyncs no more", calls)
		}
	})

	t.Run("fsync-idle", func(t *testing.T) {
		set, clk := firstHour("wal-fsync")
		l, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: seam.Fsync(set, "wal-fsync")}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(wal.Record{Op: wal.OpWhiteAdd}); err != nil {
			t.Fatal(err)
		}
		// The background flusher takes the failure; then the log idles.
		for deadline := time.Now().Add(5 * time.Second); l.Metrics().FsyncErrors == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the flusher never fsynced the append")
			}
		}
		failedForGood(t, l, clk)
	})
}
