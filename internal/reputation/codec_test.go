package reputation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/wal"
)

// journalled returns a store whose journal numbers records from 1 and
// keeps them, as a WAL would.
func journalled(clk clock.Clock) (*Store, *[]wal.Record) {
	s := newStore(clk)
	var recs []wal.Record
	s.SetJournal(func(r wal.Record) uint64 {
		r.LSN = uint64(len(recs) + 1)
		recs = append(recs, r)
		return r.LSN
	})
	return s, &recs
}

func exportJSON(t *testing.T, s *Store) []byte {
	t.Helper()
	b, err := json.Marshal(s.Export())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRecordCodecRoundTrip(t *testing.T) {
	clk := clock.NewSim(t0)
	live, recs := journalled(clk)
	senders := []mail.Address{addr("alice@partner.example"), addr("Fake@bystander.example"), mail.Null}
	for i := 0; i < 60; i++ {
		clk.Advance(23 * time.Minute)
		live.Record(senders[i%len(senders)], fmt.Sprintf("192.0.2.%d", i%4), Outcome(i%int(nOutcomes)))
	}
	r := (*recs)[0]
	if r.Op != wal.OpReputation || r.Sender != "alice@partner.example" || r.IP != "192.0.2.0" || r.Value != int64(Delivered) || r.Origin != "delivered" {
		t.Fatalf("first record = %+v", r)
	}
	replayed := newStore(clk)
	for _, r := range *recs {
		if err := replayed.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := exportJSON(t, live), exportJSON(t, replayed); !bytes.Equal(a, b) {
		t.Fatalf("replay diverged from the live store\n got %s\nwant %s", b, a)
	}
}

func TestApplyIgnoresForeignOps(t *testing.T) {
	s := newStore(clock.NewSim(t0))
	for _, r := range []wal.Record{
		{LSN: 1, Op: wal.OpWhiteAdd, User: "u@corp.example", Sender: "x@y.example"},
		{LSN: 2, Op: wal.OpGreylist, User: "192.0.2|x@y.example|u@corp.example"},
		{LSN: 3, Op: wal.OpSpoolEnqueue, Sender: "x@y.example", Blob: "{}"},
	} {
		if err := s.Apply(r); err != nil {
			t.Fatalf("%s: %v", r.Op, err)
		}
	}
	if n := len(s.Export()); n != 0 {
		t.Fatalf("foreign ops created %d entries", n)
	}
	if err := s.Apply(wal.Record{LSN: 4, Op: wal.OpReputation, Sender: "x@y.example", Value: int64(nOutcomes)}); err == nil {
		t.Fatal("applied an out-of-range outcome")
	}
}

func TestLSNGuardRejectsStaleReplay(t *testing.T) {
	clk := clock.NewSim(t0)
	live, recs := journalled(clk)
	sd := addr("alice@partner.example")
	for i := 0; i < 5; i++ {
		clk.Advance(time.Hour)
		live.Record(sd, "192.0.2.1", Delivered)
	}
	// A snapshot taken after all five, then the whole log replayed over
	// it: every record's LSN is <= the entries' LSN, so nothing counts
	// twice.
	restored := newStore(clk)
	restored.Import(live.Export())
	for _, r := range *recs {
		if err := restored.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := exportJSON(t, live), exportJSON(t, restored); !bytes.Equal(a, b) {
		t.Fatalf("stale replay changed the state\n got %s\nwant %s", b, a)
	}
	// A record past the snapshot does apply.
	next := (*recs)[4]
	next.LSN = 6
	next.Time = next.Time.Add(time.Hour)
	if err := restored.Apply(next); err != nil {
		t.Fatal(err)
	}
	for _, e := range restored.Export() {
		if e.LSN != 6 {
			t.Fatalf("entry %s kept LSN %d after a newer record", e.Key, e.LSN)
		}
	}
}
