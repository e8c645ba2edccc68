package whitelist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
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

// opReader hands out the fuzz input a byte at a time, zero once spent,
// and draws senders from its alphabet: one byte per draw, two when the
// alphabet has more than 256 senders.
type opReader struct {
	data    []byte
	senders []mail.Address
}

func (r *opReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *opReader) user() mail.Address { return fuzzUsers[r.next()%len(fuzzUsers)] }

func (r *opReader) sender() mail.Address {
	i := r.next()
	if len(r.senders) > 256 {
		i = i<<8 | r.next()
	}
	return r.senders[i%len(r.senders)]
}

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
// the first operation after which the two disagree on any read.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	// Add, remove, advance, re-add: the log keeps both additions.
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 5, 30, 0, 1, 1, 2})
	// A sender on both lists, spelled in two cases.
	f.Add([]byte{0, 0, 1, 3, 1, 1, 0, 5, 1, 1, 0, 0})
	// Replays and an import over live entries.
	f.Add([]byte{3, 0, 1, 2, 1, 40, 4, 2, 2, 1, 2, 0, 3, 0, 3, 1, 90, 3, 2, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runOps(t, opReader{data: data, senders: fuzzSenders}, maxFuzzOps, 1, 0)
	})
}

// runOps runs at most maxOps operations decoded from r on Store and on
// refStore, after reserving each user's lists for reserve entries in
// Store. Each operation's result is compared at once, and every read
// of both stores after every every-th operation and after the last,
// including those of a fresh pair of stores importing their exports.
// Store journals and replays WAL records while refStore speaks
// Mutations, so replays feed Store the encoded Mutation and the
// journals are compared through the same encoder.
func runOps(t *testing.T, r opReader, maxOps, every, reserve int) {
	t.Helper()
	clk := clock.NewSim(t0)
	got, want := NewStore(clk), newRefStore(clk)
	for _, u := range fuzzUsers {
		if reserve > 0 {
			got.Reserve(u, reserve, reserve)
		}
	}
	var gotJ []wal.Record
	var wantJ []Mutation
	got.SetJournal(func(r wal.Record) uint64 { gotJ = append(gotJ, r); return 0 })
	want.SetJournal(func(m Mutation) { wantJ = append(wantJ, m) })
	compare := func(step int, op string) {
		compareStores(t, step, op, got, want, r.senders, clk.Now())
		fresh, freshRef := NewStore(clk), newRefStore(clk)
		if err := fresh.Import(got.Export()); err != nil {
			t.Fatal(err)
		}
		if err := freshRef.Import(want.Export()); err != nil {
			t.Fatal(err)
		}
		compareStores(t, step, op+", Export and Import", fresh, freshRef, r.senders, clk.Now())
	}
	step := 0
	for ; len(r.data) > 0 && step < maxOps; step++ {
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
		if step%every == every-1 {
			compare(step, op)
		}
	}
	compare(step, "end")
	if len(gotJ) != len(wantJ) {
		t.Fatalf("journal has %d records, reference %d mutations", len(gotJ), len(wantJ))
	}
	for i, m := range wantJ {
		if !reflect.DeepEqual(gotJ[i], m.record()) {
			t.Fatalf("journal record %d\n got %+v\nwant %+v", i, gotJ[i], m.record())
		}
	}
}

// wideSenders is an alphabet of 600 senders over 7 domains, every fifth
// also spelled with a capitalised local part, so the lists outgrow any
// small table and canonicalisation still matters.
func wideSenders() []mail.Address {
	var out []mail.Address
	for i := 0; i < 500; i++ {
		a := mail.Address{Local: fmt.Sprintf("s%03d", i), Domain: fmt.Sprintf("d%d.example", i%7)}
		out = append(out, a)
		if i%5 == 0 {
			out = append(out, mail.Address{Local: fmt.Sprintf("S%03d", i), Domain: a.Domain})
		}
	}
	return out
}

// TestStoreOpsWideAlphabet holds Store to refStore over thousands of
// operations on 600 senders: the slot tables grow well past their
// Reserve, and removals, re-adds, replays and imports land in long
// probe chains. It runs once with the real hash and once with every
// sender hashed to the last slot, so every probe chain wraps and every
// lookup compares records whose tags all match.
func TestStoreOpsWideAlphabet(t *testing.T) {
	for _, c := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", c), func(t *testing.T) {
			collide = c
			defer func() { collide = false }()
			rng := rand.New(rand.NewSource(1))
			data := make([]byte, 12000)
			rng.Read(data)
			runOps(t, opReader{data: data, senders: wideSenders()}, 3000, 250, 8)
		})
	}
}

// compareStores fails unless got and want answer every read alike.
func compareStores(t *testing.T, step int, op string, got *Store, want *refStore, senders []mail.Address, now time.Time) {
	t.Helper()
	for _, u := range fuzzUsers {
		for _, sd := range senders {
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
