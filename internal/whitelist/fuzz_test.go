package whitelist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/wal"
)

// The fuzzer's address alphabet: few enough that operations collide,
// with spellings that differ only in case so canonicalisation matters.
var (
	fuzzUsers = []mail.Address{
		{Local: "bob", Domain: "corp.example"},
		{Local: "Bob", Domain: "corp.example"},
		{Local: "carol", Domain: "corp.example"},
	}
	fuzzSenders = []mail.Address{
		{Local: "ann", Domain: "x.example"},
		{Local: "ANN", Domain: "x.example"},
		{Local: "Ann", Domain: "y.example"},
		{Local: "dan", Domain: "x.example"},
	}
)

// maxFuzzOps keeps one fuzz input's run short: every operation is
// followed by a full comparison of the two stores.
const maxFuzzOps = 64

// opReader hands out the fuzz input a byte at a time, zero once spent.
type opReader []byte

func (r *opReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

func (r *opReader) user() mail.Address   { return fuzzUsers[r.next()%len(fuzzUsers)] }
func (r *opReader) sender() mail.Address { return fuzzSenders[r.next()%len(fuzzSenders)] }

// entry draws an entry stamped up to 255 minutes after t0, so replayed
// and imported entries land before, at and after the clock.
func (r *opReader) entry() Entry {
	return Entry{Addr: r.sender(), Source: Source(r.next() % 5), Added: t0.Add(time.Duration(r.next()) * time.Minute)}
}

func (r *opReader) entries() []Entry {
	out := make([]Entry, r.next()%3)
	for i := range out {
		out[i] = r.entry()
	}
	return out
}

// FuzzStoreOps decodes its input into a sequence of at most maxFuzzOps
// store operations, runs each on Store and on refStore, and fails at
// the first operation after which the two disagree on any read. Store
// journals and replays WAL records while refStore speaks Mutations, so
// replays feed Store the encoded Mutation and the journals are compared
// through the same encoder.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	// Add, remove, advance, re-add: the log keeps both additions.
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 5, 30, 0, 1, 1, 2})
	// A sender on both lists, spelled in two cases.
	f.Add([]byte{0, 0, 1, 3, 1, 1, 0, 5, 1, 1, 0, 0})
	// Replays and an import over live entries.
	f.Add([]byte{3, 0, 1, 2, 1, 40, 4, 2, 2, 1, 2, 0, 3, 0, 3, 1, 90, 3, 2, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		clk := clock.NewSim(t0)
		got, want := NewStore(clk), newRefStore(clk)
		var gotJ []wal.Record
		var wantJ []Mutation
		got.SetJournal(func(r wal.Record) uint64 { gotJ = append(gotJ, r); return 0 })
		want.SetJournal(func(m Mutation) { wantJ = append(wantJ, m) })
		r := opReader(data)
		for step := 0; len(r) > 0 && step < maxFuzzOps; step++ {
			var op string
			var g, w bool
			switch r.next() % 6 {
			case 0:
				u, sd, src := r.user(), r.sender(), Source(r.next()%5)
				op = "AddWhite"
				g, w = got.AddWhite(u, sd, src), want.AddWhite(u, sd, src)
			case 1:
				u, sd := r.user(), r.sender()
				op = "AddBlack"
				g, w = got.AddBlack(u, sd), want.AddBlack(u, sd)
			case 2:
				u, sd := r.user(), r.sender()
				op = "RemoveWhite"
				g, w = got.RemoveWhite(u, sd), want.RemoveWhite(u, sd)
			case 3:
				m := Mutation{Op: MutOp(r.next() % 3), User: r.user(), Entry: r.entry()}
				op = "Apply " + m.Op.String()
				if err := got.Apply(m.record()); err != nil {
					t.Fatal(err)
				}
				want.Apply(m)
			case 4:
				l := []ExportedList{{User: r.user().String(), White: r.entries(), Black: r.entries()}}
				op = "Import"
				if err := got.Import(l); err != nil {
					t.Fatal(err)
				}
				if err := want.Import(l); err != nil {
					t.Fatal(err)
				}
			case 5:
				op = "Advance"
				clk.Advance(time.Duration(r.next()) * time.Minute)
			}
			if g != w {
				t.Fatalf("step %d %s returned %v, reference %v", step, op, g, w)
			}
			compareStores(t, step, op, got, want, clk.Now())
		}
		if len(gotJ) != len(wantJ) {
			t.Fatalf("journal has %d records, reference %d mutations", len(gotJ), len(wantJ))
		}
		for i, m := range wantJ {
			if !reflect.DeepEqual(gotJ[i], m.record()) {
				t.Fatalf("journal record %d\n got %+v\nwant %+v", i, gotJ[i], m.record())
			}
		}
	})
}

// compareStores fails unless got and want answer every read alike.
func compareStores(t *testing.T, step int, op string, got *Store, want *refStore, now time.Time) {
	t.Helper()
	for _, u := range fuzzUsers {
		for _, sd := range fuzzSenders {
			black, white := got.Classify(u, sd)
			if wb, ww := want.IsBlack(u, sd), want.IsWhite(u, sd); black != wb || white != ww {
				t.Fatalf("step %d %s: Classify(%v, %v) = %v, %v; reference %v, %v", step, op, u, sd, black, white, wb, ww)
			}
			if got.IsWhite(u, sd) != white {
				t.Fatalf("step %d %s: IsWhite(%v, %v) disagrees with Classify", step, op, u, sd)
			}
		}
		for _, win := range [][2]time.Time{{t0, now.Add(time.Hour)}, {t0.Add(30 * time.Minute), t0.Add(2 * time.Hour)}} {
			for _, srcs := range [][]Source{nil, {SourceSeed}, {SourceChallenge, SourceDigest}} {
				if g, w := got.AdditionsBetween(u, win[0], win[1], srcs...), want.AdditionsBetween(u, win[0], win[1], srcs...); g != w {
					t.Fatalf("step %d %s: AdditionsBetween(%v, %v, %v, %v) = %d, reference %d", step, op, u, win[0], win[1], srcs, g, w)
				}
			}
		}
	}
	if g, w := mustJSON(t, got.Export()), mustJSON(t, want.Export()); !bytes.Equal(g, w) {
		t.Fatalf("step %d %s: Export\n got %s\nwant %s", step, op, g, w)
	}
	if g, w := got.CountBySource(), want.CountBySource(); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d %s: CountBySource = %v, reference %v", step, op, g, w)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
