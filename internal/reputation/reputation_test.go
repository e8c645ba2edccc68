package reputation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/mail"
)

var t0 = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

func newStore(clk clock.Clock) *Store {
	cfg := DefaultConfig()
	cfg.MinObservations = 3
	return NewStore(cfg, clk)
}

func addr(s string) mail.Address { return mail.MustParseAddress(s) }

func TestBandsFromHistory(t *testing.T) {
	clk := clock.NewSim(t0)
	s := newStore(clk)
	good := addr("alice@partner.example")
	bad := addr("fake123@bystander.example")

	// No history: neutral.
	if v := s.Score(good, "192.0.2.1"); v.Band != Neutral || v.Mass != 0 {
		t.Fatalf("empty store verdict = %+v, want neutral/0", v)
	}

	// Positive history promotes to trusted.
	for i := 0; i < 5; i++ {
		s.Record(good, "192.0.2.1", Delivered)
	}
	s.Record(good, "192.0.2.1", Solved)
	v := s.Score(good, "192.0.2.1")
	if v.Band != Trusted {
		t.Fatalf("after 5 deliveries + solve: %+v, want trusted", v)
	}
	if len(v.Keys()) != 3 {
		t.Fatalf("contributing keys = %v, want addr+domain+ip", v.Keys())
	}

	// Negative history demotes to suspect.
	for i := 0; i < 4; i++ {
		s.Record(bad, "100.64.0.9", RBLHit)
		s.Record(bad, "100.64.0.9", Bounced)
	}
	if v := s.Score(bad, "100.64.0.9"); v.Band != Suspect {
		t.Fatalf("after rbl hits + bounces: %+v, want suspect", v)
	}

	// A single good event must not open the fast path (MinObservations).
	fresh := addr("new@partner.example")
	s.Record(fresh, "192.0.2.77", Delivered)
	if v := s.Score(fresh, "192.0.2.77"); v.Band == Trusted {
		t.Fatalf("one delivery reached trusted: %+v", v)
	}
}

func TestDomainAndIPCarryOver(t *testing.T) {
	clk := clock.NewSim(t0)
	s := newStore(clk)
	// Build negative history for one spoofed sender at a botnet IP.
	for i := 0; i < 10; i++ {
		s.Record(addr("spoof1@victim.example"), "100.64.0.1", Spam)
	}
	// A brand-new local part at the same domain+IP inherits suspicion
	// through the domain and IP keys even with zero address history.
	v := s.Score(addr("spoof2@victim.example"), "100.64.0.1")
	if v.Band != Suspect {
		t.Fatalf("sibling spoof verdict = %+v, want suspect via domain+ip", v)
	}
}

// TestDecaySevenHalfLives is the decay-correctness contract: counters
// recorded at virtual t=0 must carry <1% weight after 7 half-lives.
func TestDecaySevenHalfLives(t *testing.T) {
	clk := clock.NewSim(t0)
	cfg := DefaultConfig()
	cfg.HalfLife = 24 * time.Hour
	s := NewStore(cfg, clk)
	a := addr("alice@partner.example")
	for i := 0; i < 100; i++ {
		s.Record(a, "192.0.2.1", Delivered)
	}
	before := s.Score(a, "192.0.2.1")
	if before.Mass < 299 { // 100 records x 3 keys
		t.Fatalf("initial mass = %v, want ~300", before.Mass)
	}

	clk.Advance(7 * cfg.HalfLife)
	after := s.Score(a, "192.0.2.1")
	if after.Mass >= before.Mass*0.01 {
		t.Fatalf("mass after 7 half-lives = %v (was %v); want <1%% weight", after.Mass, before.Mass)
	}
	// Decayed-out history returns the sender to neutral.
	if after.Band != Neutral {
		t.Fatalf("band after decay = %v, want neutral", after.Band)
	}
}

func TestDecayIsHalfPerHalfLife(t *testing.T) {
	clk := clock.NewSim(t0)
	cfg := DefaultConfig()
	cfg.HalfLife = 24 * time.Hour
	s := NewStore(cfg, clk)
	a := addr("alice@partner.example")
	for i := 0; i < 8; i++ {
		s.Record(a, "", Delivered)
	}
	clk.Advance(cfg.HalfLife)
	v := s.Score(a, "")
	// 8 per key over 2 keys (addr+domain), halved: 8 total.
	if v.Mass < 7.99 || v.Mass > 8.01 {
		t.Fatalf("mass after one half-life = %v, want 8", v.Mass)
	}
}

// TestSnapshotRoundTripBitForBit: export → JSON → import into a fresh
// store must preserve every score bit-for-bit, including after partial
// decay left non-trivial float values behind.
func TestSnapshotRoundTripBitForBit(t *testing.T) {
	clk := clock.NewSim(t0)
	s := newStore(clk)
	senders := []mail.Address{
		addr("alice@partner.example"),
		addr("news@letters.example"),
		addr("fake@bystander.example"),
	}
	outcomes := []Outcome{Delivered, Challenged, Solved, Spam, Bounced, RBLHit}
	for i := 0; i < 500; i++ {
		sd := senders[i%len(senders)]
		clk.Advance(37 * time.Minute) // irregular spacing → messy decay factors
		s.Record(sd, fmt.Sprintf("192.0.2.%d", i%7), outcomes[i%len(outcomes)])
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s.Export()); err != nil {
		t.Fatal(err)
	}
	var entries []ExportedEntry
	if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	restored := newStore(clk)
	restored.Import(entries)

	for _, sd := range senders {
		for ip := 0; ip < 7; ip++ {
			ipStr := fmt.Sprintf("192.0.2.%d", ip)
			a, b := s.Score(sd, ipStr), restored.Score(sd, ipStr)
			if a.Score != b.Score || a.Mass != b.Mass || a.Band != b.Band {
				t.Fatalf("score drift for %s/%s: %+v vs %+v", sd, ipStr, a, b)
			}
		}
	}
	// The exported forms must also agree exactly.
	ea, eb := s.Export(), restored.Export()
	if len(ea) != len(eb) {
		t.Fatalf("entry counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestConcurrentRecordAndLookup(t *testing.T) {
	clk := clock.NewSim(t0)
	s := newStore(clk)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sd := addr(fmt.Sprintf("s%d@dom%d.example", i%50, g%4))
				ip := fmt.Sprintf("10.0.%d.%d", g, i%200)
				if i%3 == 0 {
					s.Record(sd, ip, Outcome(i%nOutcomes))
				} else {
					_, _ = s.Lookup(sd, ip)
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries == 0 || st.Records == 0 || st.Lookups == 0 {
		t.Fatalf("stats after concurrent load: %+v", st)
	}
	if len(st.ShardOccupancy) != s.cfg.Shards {
		t.Fatalf("shard occupancy length %d, want %d", len(st.ShardOccupancy), s.cfg.Shards)
	}
	var occ int
	for _, n := range st.ShardOccupancy {
		occ += n
	}
	if occ != st.Entries {
		t.Fatalf("occupancy sum %d != entries %d", occ, st.Entries)
	}
}

func TestTopSenders(t *testing.T) {
	clk := clock.NewSim(t0)
	s := newStore(clk)
	for i := 0; i < 6; i++ {
		s.Record(addr("big@partner.example"), "", Delivered)
		s.Record(addr("bad@bystander.example"), "", RBLHit)
	}
	for i := 0; i < 4; i++ {
		s.Record(addr("small@partner.example"), "", Delivered)
	}
	top := s.TopSenders(Trusted, 10)
	if len(top) != 2 || top[0].Key != "big@partner.example" || top[1].Key != "small@partner.example" {
		t.Fatalf("trusted top-k = %+v", top)
	}
	bad := s.TopSenders(Suspect, 1)
	if len(bad) != 1 || bad[0].Key != "bad@bystander.example" {
		t.Fatalf("suspect top-k = %+v", bad)
	}
}

func TestInjectedFaultsFailOpen(t *testing.T) {
	clk := clock.NewSim(t0)
	plan, err := faults.Parse(strings.NewReader(
		`{"name":"rep-down","rules":[{"target":"reputation","kind":"error"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Injector = faults.New(plan, 1, clk)
	s := NewStore(cfg, clk)

	a := addr("alice@partner.example")
	s.Record(a, "192.0.2.1", Delivered) // dropped, not fatal
	if _, err := s.Lookup(a, "192.0.2.1"); err == nil {
		t.Fatal("lookup under store outage should error (callers fail open)")
	}
	st := s.Stats()
	if st.DroppedWrites != 1 || st.FailedLookups != 1 || st.Entries != 0 {
		t.Fatalf("fault accounting: %+v", st)
	}
}

func TestNullSenderAndEmptyIPIgnored(t *testing.T) {
	clk := clock.NewSim(t0)
	s := newStore(clk)
	s.Record(mail.Null, "", Delivered)
	if st := s.Stats(); st.Entries != 0 || st.Records != 0 {
		t.Fatalf("null-sender record should be a no-op: %+v", st)
	}
	if v := s.Score(mail.Null, ""); v.Band != Neutral || len(v.Keys()) != 0 {
		t.Fatalf("null-sender verdict = %+v", v)
	}
}

// BenchmarkReputationLookup measures the lock-striped store under
// parallel readers: every goroutine scores senders spread across all
// shards, the contention profile of a busy MTA consulting reputation on
// every gray message.
func BenchmarkReputationLookup(b *testing.B) {
	rep := NewStore(DefaultConfig(), clock.NewSim(t0))
	const nSenders = 4096
	senders := make([]mail.Address, nSenders)
	ips := make([]string, nSenders)
	for i := range senders {
		senders[i] = mail.MustParseAddress(fmt.Sprintf("s%04d@dom%02d.example", i, i%64))
		ips[i] = fmt.Sprintf("100.64.%d.%d", i/250, i%250+1)
		rep.Record(senders[i], ips[i], Delivered)
		rep.Record(senders[i], ips[i], Solved)
	}
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger goroutines across the key space so they collide on
		// shards the way independent SMTP sessions would.
		i := int(atomic.AddInt64(&next, 977))
		for pb.Next() {
			if _, err := rep.Lookup(senders[i%nSenders], ips[i%nSenders]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// TestLookupAllocatesNothing: a verdict keeps its keys inline and names
// them only when asked, so a lookup over three keys with history
// allocates nothing.
func TestLookupAllocatesNothing(t *testing.T) {
	s := newStore(clock.NewSim(t0))
	sender := addr("alice@partner.example")
	for i := 0; i < 5; i++ {
		s.Record(sender, "192.0.2.1", Delivered)
	}
	var v Verdict
	allocs := testing.AllocsPerRun(100, func() {
		v, _ = s.Lookup(sender, "192.0.2.1")
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v times", allocs)
	}
	var names []string
	for _, k := range v.Keys() {
		names = append(names, k.Key())
	}
	if got := strings.Join(names, ","); got != "a:alice@partner.example,d:partner.example,i:192.0.2.1" {
		t.Fatalf("keys = %q", got)
	}
}
