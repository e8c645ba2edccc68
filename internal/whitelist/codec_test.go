package whitelist

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/wal"
)

func TestRecordCodecRoundTrip(t *testing.T) {
	user := mail.MustParseAddress("Alice@corp.example")
	sender := mail.MustParseAddress("Ann@x.example")
	added := t0.Add(90 * time.Minute)
	for _, tc := range []struct {
		m  Mutation
		op wal.Op
	}{
		{Mutation{Op: MutAddWhite, User: user, Entry: Entry{Addr: sender, Source: SourceDigest, Added: added}}, wal.OpWhiteAdd},
		{Mutation{Op: MutAddBlack, User: user, Entry: Entry{Addr: sender, Source: SourceManual, Added: added}}, wal.OpBlackAdd},
		{Mutation{Op: MutRemoveWhite, User: user, Entry: Entry{Addr: sender, Added: added}}, wal.OpWhiteRemove},
	} {
		r := tc.m.record()
		if r.Op != tc.op {
			t.Fatalf("%s encodes as %s, want %s", tc.m.Op, r.Op, tc.op)
		}
		got, ok, err := mutationOf(r)
		if !ok || err != nil {
			t.Fatalf("%s: decode ok=%v err=%v", tc.m.Op, ok, err)
		}
		if got != tc.m {
			t.Fatalf("%s round trip\n got %+v\nwant %+v", tc.m.Op, got, tc.m)
		}
	}

	// Through a store: journalled additions replay with Source and Added
	// intact, and the removal replays as a removal.
	clk := clock.NewSim(t0)
	live, replayed := NewStore(clk), NewStore(clk)
	var recs []wal.Record
	live.SetJournal(func(r wal.Record) uint64 { recs = append(recs, r); return uint64(len(recs)) })
	live.AddWhite(user, sender, SourceOutbound)
	clk.Advance(time.Hour)
	live.AddWhite(user, mail.MustParseAddress("bob@x.example"), SourceChallenge)
	live.AddBlack(user, mail.MustParseAddress("pest@y.example"))
	clk.Advance(time.Hour)
	live.RemoveWhite(user, mail.MustParseAddress("BOB@x.example"))
	if len(recs) != 4 {
		t.Fatalf("journalled %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if err := replayed.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	a, b := mustJSON(t, live.Export()), mustJSON(t, replayed.Export())
	if !bytes.Equal(a, b) {
		t.Fatalf("replayed store differs\n got %s\nwant %s", b, a)
	}
	if n := replayed.AdditionsBetween(user, t0, t0.Add(time.Minute), SourceOutbound); n != 1 {
		t.Fatalf("replayed outbound additions at t0 = %d, want 1", n)
	}
}

func TestApplyIgnoresForeignOps(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	for _, r := range []wal.Record{
		{Op: wal.OpReputation, Sender: "x@y.example", IP: "192.0.2.1"},
		{Op: wal.OpGreylist, User: "192.0.2|x@y.example|u@corp.example"},
		{Op: wal.OpSpoolSent, User: "<m1@corp.example>", Sender: "not an address"},
		{Op: wal.Op(200), User: "u@corp.example", Sender: "x@y.example"},
	} {
		if err := s.Apply(r); err != nil {
			t.Fatalf("%s: %v", r.Op, err)
		}
	}
	if got := s.Export(); len(got) != 0 {
		t.Fatalf("foreign ops changed the store: %+v", got)
	}
	if err := s.Apply(wal.Record{Op: wal.OpWhiteAdd, User: "u@corp.example", Sender: "not an address"}); err == nil {
		t.Fatal("applied a list record with an unparsable sender")
	}
}
