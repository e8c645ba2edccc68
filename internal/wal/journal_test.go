package wal_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/reputation"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// TestJournalRoundTrip drives real stores through the journal, replays
// the log into fresh stores through their Apply, and requires
// byte-identical exports.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Dir: dir, Manual: true}
	l, _, err := wal.Open(opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSim(t0)
	wl := whitelist.NewStore(clk)
	rep := reputation.NewStore(reputation.Config{}, clk)
	j := wal.NewJournal(l)
	var tapped []wal.Record
	j.SetTap(func(r wal.Record) { tapped = append(tapped, r) })
	j.Attach(wl, rep, nil)

	user := mail.MustParseAddress("alice@corp.example")
	for i := 0; i < 30; i++ {
		sender := mail.MustParseAddress(fmt.Sprintf("Sender%d@remote.example", i))
		wl.AddWhite(user, sender, whitelist.Source(i%5))
		rep.Record(sender, fmt.Sprintf("198.51.100.%d", i), reputation.Outcome(i%6))
		clk.Advance(3 * time.Hour)
	}
	wl.AddBlack(user, mail.MustParseAddress("evil@spam.example"))
	wl.RemoveWhite(user, mail.MustParseAddress("sender3@remote.example"))
	rep.Record(mail.Null, "203.0.113.9", reputation.Bounced)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(tapped) == 0 {
		t.Fatal("tap saw no records")
	}
	for i, r := range tapped {
		if r.LSN != uint64(i+1) {
			t.Fatalf("tap record %d has LSN %d", i, r.LSN)
		}
	}

	clk2 := clock.NewSim(clk.Now())
	wl2 := whitelist.NewStore(clk2)
	rep2 := reputation.NewStore(reputation.Config{}, clk2)
	l2, st, err := wal.Open(opts, 0, func(r wal.Record) error {
		if err := wl2.Apply(r); err != nil {
			return err
		}
		return rep2.Apply(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st.Replayed != len(tapped) {
		t.Fatalf("replayed %d, committed %d", st.Replayed, len(tapped))
	}

	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := mustJSON(wl.Export()), mustJSON(wl2.Export()); !bytes.Equal(a, b) {
		t.Fatalf("whitelist exports differ\n%s\n%s", a, b)
	}
	if a, b := mustJSON(rep.Export()), mustJSON(rep2.Export()); !bytes.Equal(a, b) {
		t.Fatalf("reputation exports differ\n%s\n%s", a, b)
	}
}
