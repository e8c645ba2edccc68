package whitelist

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

var (
	t0  = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	bob = mail.MustParseAddress("bob@corp.example")
	ali = mail.MustParseAddress("alice@example.com")
)

// whiteLen returns the number of entries on user's whitelist.
func whiteLen(s *Store, user mail.Address) int {
	for _, l := range s.Export() {
		if l.User == user.Key() {
			return len(l.White)
		}
	}
	return 0
}

func TestAddWhiteAndLookup(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	if s.IsWhite(bob, ali) {
		t.Fatal("empty store claims whitelisted")
	}
	if !s.AddWhite(bob, ali, SourceChallenge) {
		t.Fatal("first add returned false")
	}
	if !s.IsWhite(bob, ali) {
		t.Fatal("added sender not whitelisted")
	}
	// Other user's list is unaffected.
	carol := mail.MustParseAddress("carol@corp.example")
	if s.IsWhite(carol, ali) {
		t.Fatal("whitelist leaked across users")
	}
}

func TestAddWhiteIdempotent(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	s.AddWhite(bob, ali, SourceChallenge)
	if s.AddWhite(bob, ali, SourceDigest) {
		t.Fatal("duplicate add returned true")
	}
	if n := whiteLen(s, bob); n != 1 {
		t.Fatalf("whitelist size = %d, want 1", n)
	}
	// Change log must contain exactly one entry.
	if n := s.AdditionsBetween(bob, t0, t0.Add(time.Hour)); n != 1 {
		t.Fatalf("log additions = %d, want 1", n)
	}
}

func TestCaseInsensitiveMatch(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	s.AddWhite(bob, mail.MustParseAddress("Alice@Example.COM"), SourceManual)
	if !s.IsWhite(bob, ali) {
		t.Fatal("whitelist match must be case-insensitive")
	}
}

func TestBlacklist(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	spammer := mail.MustParseAddress("junk@spam.example")
	if !s.AddBlack(bob, spammer) {
		t.Fatal("AddBlack returned false")
	}
	if black, white := s.Classify(bob, spammer); !black || white {
		t.Fatalf("Classify(spammer) = %v, %v; want black only", black, white)
	}
	if black, _ := s.Classify(bob, ali); black {
		t.Fatal("innocent sender blacklisted")
	}
	if s.AddBlack(bob, spammer) {
		t.Fatal("duplicate AddBlack returned true")
	}
}

func TestRemoveWhite(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	s.AddWhite(bob, ali, SourceManual)
	if !s.RemoveWhite(bob, ali) {
		t.Fatal("RemoveWhite returned false for present entry")
	}
	if s.IsWhite(bob, ali) {
		t.Fatal("entry survives removal")
	}
	if s.RemoveWhite(bob, ali) {
		t.Fatal("RemoveWhite returned true for absent entry")
	}
	if s.RemoveWhite(mail.MustParseAddress("ghost@corp.example"), ali) {
		t.Fatal("RemoveWhite returned true for unknown user")
	}
}

func TestReAddAfterRemove(t *testing.T) {
	clk := clock.NewSim(t0)
	s := NewStore(clk)
	s.AddWhite(bob, ali, SourceChallenge)
	s.RemoveWhite(bob, ali)
	clk.Advance(time.Hour)
	if !s.AddWhite(bob, mail.MustParseAddress("Alice@example.com"), SourceDigest) {
		t.Fatal("re-add after removal returned false")
	}
	// The log keeps both additions; the list holds the newer one.
	if n := s.AdditionsBetween(bob, t0, t0.Add(2*time.Hour)); n != 2 {
		t.Fatalf("additions = %d, want 2", n)
	}
	lists := s.Export()
	if len(lists) != 1 || len(lists[0].White) != 1 {
		t.Fatalf("export = %+v", lists)
	}
	if e := lists[0].White[0]; e.Source != SourceDigest || !e.Added.Equal(t0.Add(time.Hour)) || e.Addr.Local != "Alice" {
		t.Fatalf("exported entry = %+v, want the re-added one", e)
	}
}

func TestImportNamesEveryUser(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	if err := s.Import([]ExportedList{{User: "quiet@corp.example"}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Export(); len(got) != 1 || got[0].User != "quiet@corp.example" || got[0].White != nil || got[0].Black != nil {
		t.Fatalf("export = %+v, want one user with empty lists", got)
	}
}

func TestAdditionsBetweenWindowAndSources(t *testing.T) {
	clk := clock.NewSim(t0)
	s := NewStore(clk)
	s.AddWhite(bob, mail.MustParseAddress("seed@old.example"), SourceSeed)
	s.AddWhite(bob, mail.MustParseAddress("a1@x.example"), SourceChallenge)
	clk.Advance(24 * time.Hour)
	s.AddWhite(bob, mail.MustParseAddress("a2@x.example"), SourceDigest)
	clk.Advance(24 * time.Hour)
	s.AddWhite(bob, mail.MustParseAddress("a3@x.example"), SourceOutbound)

	// Seed entries are excluded by default.
	if n := s.AdditionsBetween(bob, t0, t0.Add(72*time.Hour)); n != 3 {
		t.Fatalf("all additions = %d, want 3", n)
	}
	// Window slicing: only the day-1 entry.
	if n := s.AdditionsBetween(bob, t0.Add(12*time.Hour), t0.Add(36*time.Hour)); n != 1 {
		t.Fatalf("windowed = %d, want 1", n)
	}
	// Source filter.
	if n := s.AdditionsBetween(bob, t0, t0.Add(72*time.Hour), SourceDigest); n != 1 {
		t.Fatalf("digest-only = %d, want 1", n)
	}
	if n := s.AdditionsBetween(bob, t0, t0.Add(72*time.Hour), SourceSeed); n != 1 {
		t.Fatalf("explicit seed = %d, want 1", n)
	}
	// Unknown user.
	if n := s.AdditionsBetween(mail.MustParseAddress("no@corp.example"), t0, t0.Add(time.Hour)); n != 0 {
		t.Fatalf("unknown user additions = %d", n)
	}
}

func TestCountBySource(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	s.AddWhite(bob, mail.MustParseAddress("a@x.example"), SourceChallenge)
	s.AddWhite(bob, mail.MustParseAddress("b@x.example"), SourceChallenge)
	s.AddWhite(bob, mail.MustParseAddress("c@x.example"), SourceDigest)
	got := s.CountBySource()
	if got[SourceChallenge] != 2 || got[SourceDigest] != 1 {
		t.Fatalf("CountBySource = %v", got)
	}
}

func TestSourceString(t *testing.T) {
	for src, want := range map[Source]string{
		SourceChallenge: "challenge", SourceDigest: "digest",
		SourceManual: "manual", SourceOutbound: "outbound", SourceSeed: "seed",
		Source(42): "unknown",
	} {
		if src.String() != want {
			t.Errorf("Source(%d).String() = %q, want %q", int(src), src.String(), want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			sender := mail.MustParseAddress(fmt.Sprintf("s%d@x.example", i))
			s.AddWhite(bob, sender, SourceChallenge)
		}(i)
		go func(i int) {
			defer wg.Done()
			s.IsWhite(bob, ali)
		}(i)
	}
	wg.Wait()
	if n := whiteLen(s, bob); n != 64 {
		t.Fatalf("whitelist size = %d, want 64", n)
	}
}

// Property: after adding any set of distinct senders, each is whitelisted
// and the exported whitelist holds the number of distinct keys.
func TestAddAllFoundProperty(t *testing.T) {
	f := func(locals []uint16) bool {
		s := NewStore(clock.NewSim(t0))
		distinct := make(map[string]bool)
		for _, l := range locals {
			a := mail.Address{Local: fmt.Sprintf("u%d", l), Domain: "p.example"}
			s.AddWhite(bob, a, SourceManual)
			distinct[a.Key()] = true
			if !s.IsWhite(bob, a) {
				return false
			}
		}
		return whiteLen(s, bob) == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIsWhite(b *testing.B) {
	s := NewStore(clock.NewSim(t0))
	for i := 0; i < 500; i++ {
		s.AddWhite(bob, mail.MustParseAddress(fmt.Sprintf("s%d@x.example", i)), SourceSeed)
	}
	target := mail.MustParseAddress("s250@x.example")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IsWhite(bob, target)
	}
}

// BenchmarkClassify probes a store shaped like a fleet company
// (heapGuardStore: 2,000 users with 28 whitelisted and 2 blacklisted
// senders each) the way the dispatch path does: one query in eight
// names a sender on the user's whitelist, the rest are strangers.
func BenchmarkClassify(b *testing.B) {
	users, contacts := heapGuardAddrs()
	clk := clock.NewSim(t0)
	s := NewStore(clk)
	heapGuardStore(s, clk, users, contacts)
	white := make(map[string][]Entry, len(users))
	for _, l := range s.Export() {
		white[l.User] = l.White
	}
	type query struct{ user, sender mail.Address }
	rng := rand.New(rand.NewSource(2))
	queries := make([]query, 4096)
	for i := range queries {
		u := users[rng.Intn(len(users))]
		sender := contacts[rng.Intn(len(contacts))]
		if w := white[u.Key()]; i%8 == 0 {
			sender = w[rng.Intn(len(w))].Addr
		}
		queries[i] = query{u, sender}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		s.Classify(q.user, q.sender)
	}
}

func BenchmarkAddWhite(b *testing.B) {
	s := NewStore(clock.NewSim(t0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AddWhite(bob, mail.Address{Local: fmt.Sprintf("s%d", i), Domain: "x.example"}, SourceChallenge)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	clk := clock.NewSim(t0)
	src := NewStore(clk)
	src.AddWhite(bob, mail.MustParseAddress("w1@x.example"), SourceChallenge)
	clk.Advance(time.Hour)
	src.AddWhite(bob, mail.MustParseAddress("w2@x.example"), SourceDigest)
	src.AddBlack(bob, mail.MustParseAddress("b1@x.example"))
	carol := mail.MustParseAddress("carol@corp.example")
	src.AddWhite(carol, mail.MustParseAddress("w3@x.example"), SourceOutbound)

	exported := src.Export()
	if len(exported) != 2 {
		t.Fatalf("exported users = %d, want 2", len(exported))
	}
	// Users sorted; bob first.
	if exported[0].User != bob.Key() {
		t.Fatalf("export order = %v", exported[0].User)
	}
	// Entries sorted by addition time.
	if len(exported[0].White) != 2 || exported[0].White[0].Addr.Local != "w1" {
		t.Fatalf("bob white export = %+v", exported[0].White)
	}
	if len(exported[0].Black) != 1 {
		t.Fatalf("bob black export = %+v", exported[0].Black)
	}

	dst := NewStore(clk)
	if err := dst.Import(exported); err != nil {
		t.Fatal(err)
	}
	black, _ := dst.Classify(bob, mail.MustParseAddress("b1@x.example"))
	if !dst.IsWhite(bob, mail.MustParseAddress("w2@x.example")) || !black ||
		!dst.IsWhite(carol, mail.MustParseAddress("w3@x.example")) {
		t.Fatal("import lost entries")
	}
	// Timestamps/sources survive: windowed queries behave identically.
	n := dst.AdditionsBetween(bob, t0, t0.Add(30*time.Minute), SourceChallenge)
	if n != 1 {
		t.Fatalf("restored windowed additions = %d, want 1", n)
	}
}

// TestReserveChangesNoContent loads the same lists with and without
// Reserve beforehand, and once more after a Reserve on lists that
// already hold entries: every store must export the same lists.
func TestReserveChangesNoContent(t *testing.T) {
	load := func(s *Store, from, to int) {
		for i := from; i < to; i++ {
			s.AddWhite(bob, mail.MustParseAddress(fmt.Sprintf("w%d@x.example", i%7)), SourceSeed)
			s.AddBlack(bob, mail.MustParseAddress(fmt.Sprintf("b%d@x.example", i%3)))
		}
	}
	plain, reserved := NewStore(clock.NewSim(t0)), NewStore(clock.NewSim(t0))
	load(plain, 0, 10)
	reserved.Reserve(bob, 10, 10)
	load(reserved, 0, 5)
	reserved.Reserve(bob, 10, 10) // non-empty lists: a no-op
	load(reserved, 5, 10)
	want, got := plain.Export(), reserved.Export()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("export with Reserve = %v, want %v", got, want)
	}
	if n := whiteLen(reserved, bob); n != 7 {
		t.Fatalf("whitelist size = %d, want 7", n)
	}
}

func TestImportIdempotent(t *testing.T) {
	clk := clock.NewSim(t0)
	src := NewStore(clk)
	src.AddWhite(bob, ali, SourceManual)
	exported := src.Export()

	dst := NewStore(clk)
	if err := dst.Import(exported); err != nil {
		t.Fatal(err)
	}
	if err := dst.Import(exported); err != nil {
		t.Fatal(err)
	}
	if n := whiteLen(dst, bob); n != 1 {
		t.Fatalf("double import duplicated entries: %d", n)
	}
	// The change log also stays single (Figure 9 stats unaffected).
	if n := dst.AdditionsBetween(bob, t0, t0.Add(time.Hour)); n != 1 {
		t.Fatalf("log additions after double import = %d", n)
	}
}

func TestImportRejectsBadUser(t *testing.T) {
	clk := clock.NewSim(t0)
	dst := NewStore(clk)
	err := dst.Import([]ExportedList{{User: "not an address"}})
	if err == nil {
		t.Fatal("bad user accepted")
	}
}

func TestExportEmptyStore(t *testing.T) {
	s := NewStore(clock.NewSim(t0))
	if got := s.Export(); len(got) != 0 {
		t.Fatalf("empty export = %v", got)
	}
}

// TestListRecordLimit: a slot addresses 2^24-1 log positions. A list
// whose log is full panics on its next record, a re-add included, and
// still holds every entry it had under its own address and no other.
func TestListRecordLimit(t *testing.T) {
	if maxRecords != 1<<24-1 || posMask+1 != 1<<24 {
		t.Fatalf("a slot addresses %d records, want 2^24-1", maxRecords)
	}
	defer func(n int) { maxRecords = n }(maxRecords)
	maxRecords = 40
	addr := func(i int) mail.Address { return mail.Address{Local: fmt.Sprintf("s%d", i), Domain: "x.example"} }
	s := NewStore(clock.NewSim(t0))
	for i := 0; i < 39; i++ {
		s.AddWhite(bob, addr(i), SourceSeed)
	}
	s.RemoveWhite(bob, addr(1))
	if s.AddWhite(bob, addr(0), SourceDigest) {
		t.Fatal("a present sender was added again")
	}
	if !s.AddWhite(bob, addr(39), SourceSeed) {
		t.Fatal("the 40th record was refused")
	}
	for _, i := range []int{40, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("record 41 (sender %d) did not panic", i)
				}
			}()
			s.AddWhite(bob, addr(i), SourceSeed)
		}()
	}
	white := s.Export()[0].White
	if len(white) != 39 {
		t.Fatalf("list holds %d entries after the refused records, want 39", len(white))
	}
	for i := 0; i < 41; i++ {
		if want := i != 1 && i != 40; s.IsWhite(bob, addr(i)) != want {
			t.Fatalf("IsWhite(sender %d) = %v, want %v", i, !want, want)
		}
	}
	for _, e := range white {
		if e.Addr == addr(1) || e.Addr == addr(40) {
			t.Fatalf("export holds refused sender %v", e.Addr)
		}
	}
}

// TestExportTiedAllocs: seeded lists stamp every entry at one instant,
// so Export's sort breaks every tie on the sender's key. It compares
// the keys in place: the allocations of one Export do not grow with the
// number of comparisons.
func TestExportTiedAllocs(t *testing.T) {
	s := NewStore(clock.NewSim(t0)) // the clock never moves: every entry ties
	for i := 0; i < 5000; i++ {
		s.AddWhite(bob, mail.Address{Local: fmt.Sprintf("Sender.%d", (i*7919)%5000), Domain: "x.example"}, SourceSeed)
	}
	var got []ExportedList
	allocs := testing.AllocsPerRun(3, func() { got = s.Export() })
	white := got[0].White
	for i := 1; i < len(white); i++ {
		if white[i-1].Addr.Key() >= white[i].Addr.Key() {
			t.Fatalf("entries %d and %d out of key order: %s, %s", i-1, i, white[i-1].Addr, white[i].Addr)
		}
	}
	// One Export of one user: the result, its user key and one entry
	// slice per list. Comparing keys by building them cost two strings
	// per comparison, about 120,000 here.
	if allocs > 10 {
		t.Fatalf("Export of %d tied entries allocated %v times", len(white), allocs)
	}
}
