package rbl

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

var t0 = time.Date(2010, 9, 1, 0, 0, 0, 0, time.UTC)

func TestStaticListing(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("test", DefaultPolicy(), clk)
	p.AddStatic("203.0.113.1")
	if !p.IsListed("203.0.113.1") {
		t.Fatal("static IP not listed")
	}
	if p.IsListed("203.0.113.2") {
		t.Fatal("unknown IP listed")
	}
	// Static listings never expire.
	clk.Advance(365 * 24 * time.Hour)
	if !p.IsListed("203.0.113.1") {
		t.Fatal("static listing expired")
	}
}

func TestThresholdListing(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("test", Policy{HitThreshold: 3, Window: time.Hour, ListingTTL: 24 * time.Hour}, clk)
	ip := "198.51.100.5"
	p.ReportTrapHit(ip)
	p.ReportTrapHit(ip)
	if p.IsListed(ip) {
		t.Fatal("listed below threshold")
	}
	p.ReportTrapHit(ip)
	if !p.IsListed(ip) {
		t.Fatal("not listed at threshold")
	}
}

func TestWindowSliding(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("test", Policy{HitThreshold: 3, Window: time.Hour, ListingTTL: 24 * time.Hour}, clk)
	ip := "198.51.100.6"
	p.ReportTrapHit(ip)
	p.ReportTrapHit(ip)
	clk.Advance(2 * time.Hour) // first two hits age out of the window
	p.ReportTrapHit(ip)
	if p.IsListed(ip) {
		t.Fatal("hits outside window counted")
	}
}

func TestListingExpiry(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("test", Policy{HitThreshold: 1, Window: time.Hour, ListingTTL: 24 * time.Hour}, clk)
	ip := "198.51.100.7"
	p.ReportTrapHit(ip)
	if !p.IsListed(ip) {
		t.Fatal("not listed")
	}
	clk.Advance(25 * time.Hour)
	if p.IsListed(ip) {
		t.Fatal("listing did not expire")
	}
}

func TestListingExtension(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("test", Policy{HitThreshold: 1, Window: time.Hour, ListingTTL: 24 * time.Hour}, clk)
	ip := "198.51.100.8"
	p.ReportTrapHit(ip)
	clk.Advance(20 * time.Hour)
	p.ReportTrapHit(ip) // extends to now+24h
	clk.Advance(20 * time.Hour)
	if !p.IsListed(ip) {
		t.Fatal("extension not applied")
	}
	clk.Advance(5 * time.Hour)
	if p.IsListed(ip) {
		t.Fatal("extended listing did not expire")
	}
}

func TestHistoryIntervals(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("test", Policy{HitThreshold: 1, Window: time.Hour, ListingTTL: 10 * time.Hour}, clk)
	ip := "198.51.100.9"
	p.ReportTrapHit(ip)
	clk.Advance(11 * time.Hour)
	if p.IsListed(ip) {
		t.Fatal("first listing outlived its 10h TTL")
	}
	// The expired listing was never swept; the re-listing hit opens a
	// new interval over it and moves the generation.
	gen := p.Gen()
	p.ReportTrapHit(ip)
	if !p.IsListed(ip) || p.Gen() == gen {
		t.Fatalf("re-listing over an unswept expiry: listed %v, gen %d -> %d", p.IsListed(ip), gen, p.Gen())
	}
	// The second interval runs a full TTL from the re-listing hit, not
	// from the first listing's expiry.
	clk.Advance(10*time.Hour - time.Second)
	if !p.IsListed(ip) {
		t.Fatal("second interval ended before its 10h TTL")
	}
	clk.Advance(time.Second)
	if p.IsListed(ip) {
		t.Fatal("second interval outlived its 10h TTL")
	}
	if got := p.Sweep(clk.Now()); len(got) != 1 || got[0] != ip {
		t.Fatalf("sweep after the second interval = %v, want [%s]", got, ip)
	}
}

func TestTrapRegistry(t *testing.T) {
	clk := clock.NewSim(t0)
	p1 := NewProvider("p1", Policy{HitThreshold: 1, Window: time.Hour, ListingTTL: time.Hour}, clk)
	p2 := NewProvider("p2", Policy{HitThreshold: 2, Window: time.Hour, ListingTTL: time.Hour}, clk)
	reg := NewTrapRegistry(p1, p2)
	trap := mail.MustParseAddress("trap@lure.example")
	reg.AddTrap(trap)

	if !reg.IsTrap(trap) {
		t.Fatal("IsTrap = false for registered trap")
	}
	if reg.IsTrap(mail.MustParseAddress("real@user.example")) {
		t.Fatal("IsTrap = true for non-trap")
	}

	if hit := reg.Hit(mail.MustParseAddress("real@user.example"), "10.0.0.1"); hit {
		t.Fatal("Hit on non-trap returned true")
	}
	if !reg.Hit(trap, "10.0.0.1") {
		t.Fatal("Hit on trap returned false")
	}
	if !p1.IsListed("10.0.0.1") {
		t.Fatal("aggressive provider did not list after 1 hit")
	}
	if p2.IsListed("10.0.0.1") {
		t.Fatal("conservative provider listed after 1 hit")
	}
	if reg.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", reg.Hits())
	}
}

func TestTrapAddressCaseInsensitive(t *testing.T) {
	reg := NewTrapRegistry()
	reg.AddTrap(mail.MustParseAddress("Trap@Lure.Example"))
	if !reg.IsTrap(mail.MustParseAddress("trap@lure.example")) {
		t.Fatal("trap matching must be case-insensitive")
	}
}

func TestChecker(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("p", Policy{HitThreshold: 1, Window: time.Hour, ListingTTL: 12 * time.Hour}, clk)
	c := NewChecker(p)
	ips := []string{"10.0.0.1", "10.0.0.2"}

	p.ReportTrapHit("10.0.0.1")
	// Poll every 4h for 48h: 10.0.0.1 listed for 12h => 3 of 12 polls.
	for i := 0; i < 12; i++ {
		c.Poll(ips)
		clk.Advance(4 * time.Hour)
	}
	f1 := c.ListedFraction("10.0.0.1")
	if f1 != 3.0/12 {
		t.Fatalf("ListedFraction = %v, want 0.25", f1)
	}
	if c.ListedFraction("10.0.0.2") != 0 {
		t.Fatal("unlisted IP has nonzero fraction")
	}
	if d := c.ListedDays("10.0.0.1", 4*time.Hour); d != 0.5 {
		t.Fatalf("ListedDays = %v, want 0.5", d)
	}
}

func TestCheckerNoPolls(t *testing.T) {
	c := NewChecker()
	if c.ListedFraction("10.0.0.1") != 0 {
		t.Fatal("fraction with zero polls must be 0")
	}
}

func TestStandardProviders(t *testing.T) {
	clk := clock.NewSim(t0)
	ps := StandardProviders(clk)
	if len(ps) != 8 {
		t.Fatalf("providers = %d, want 8 (the paper's panel)", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if names[p.Name()] {
			t.Fatalf("duplicate provider %q", p.Name())
		}
		names[p.Name()] = true
	}
	// The CBL-like provider must list on a single hit.
	for _, p := range ps {
		if p.Name() == "cbl" {
			p.ReportTrapHit("10.9.9.9")
			if !p.IsListed("10.9.9.9") {
				t.Fatal("cbl-like provider should list on first hit")
			}
		}
	}
}

func TestSweep(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("test", Policy{HitThreshold: 1, Window: time.Hour, ListingTTL: 2 * time.Hour}, clk)
	p.ReportTrapHit("198.51.100.2")
	p.ReportTrapHit("198.51.100.1")
	clk.Advance(time.Hour)
	p.ReportTrapHit("198.51.100.3") // expires an hour after the first two
	gen := p.Gen()

	clk.Advance(90 * time.Minute)
	// Expired but unswept: IsListed is a pure read and answers false
	// without mutating anything.
	if p.IsListed("198.51.100.1") {
		t.Fatal("expired listing still listed")
	}
	if got := p.Gen(); got != gen {
		t.Fatalf("pure-read IsListed bumped gen %d -> %d", gen, got)
	}

	swept := p.Sweep(clk.Now())
	if want := []string{"198.51.100.1", "198.51.100.2"}; !slices.Equal(swept, want) {
		t.Fatalf("swept = %v, want %v", swept, want)
	}
	if got := p.Gen(); got != gen+1 {
		t.Fatalf("sweep gen = %d, want one bump over %d", got, gen)
	}
	if p.IsListed("198.51.100.1") || !p.IsListed("198.51.100.3") {
		t.Fatal("sweep removed the wrong listings")
	}
	// Nothing left to sweep: no-op, no gen bump.
	if again := p.Sweep(clk.Now()); len(again) != 0 || p.Gen() != gen+1 {
		t.Fatalf("second sweep = %v gen %d", again, p.Gen())
	}
}

func TestProviderConcurrency(t *testing.T) {
	clk := clock.NewSim(t0)
	p := NewProvider("c", DefaultPolicy(), clk)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			p.ReportTrapHit(fmt.Sprintf("10.0.0.%d", i%8))
		}(i)
		go func(i int) {
			defer wg.Done()
			p.IsListed(fmt.Sprintf("10.0.0.%d", i%8))
		}(i)
	}
	wg.Wait()
}

func BenchmarkIsListed(b *testing.B) {
	clk := clock.NewSim(t0)
	p := NewProvider("bench", DefaultPolicy(), clk)
	for i := 0; i < 256; i++ {
		p.AddStatic(fmt.Sprintf("203.0.113.%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.IsListed("203.0.113.128")
	}
}

func BenchmarkTrapHit(b *testing.B) {
	clk := clock.NewSim(t0)
	ps := StandardProviders(clk)
	reg := NewTrapRegistry(ps...)
	trap := mail.MustParseAddress("trap@lure.example")
	reg.AddTrap(trap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Hit(trap, "198.51.100.1")
	}
}

// TestIsTrapMatchesKeyedSet pins IsTrap, keyed by canonical address, to
// the string-keyed set it replaced (mail.Address.Key): the same answer
// for mixed-case local parts, other domains and the null address, with
// the null address registered as a trap and without.
func TestIsTrapMatchesKeyedSet(t *testing.T) {
	queries := []mail.Address{
		{Local: "trap", Domain: "lure.example"},
		{Local: "TRAP", Domain: "lure.example"},
		{Local: "Trap", Domain: "lure.example"},
		{Local: "mixed", Domain: "lure.example"},
		{Local: "MiXeD", Domain: "lure.example"},
		{Local: "trap", Domain: "other.example"},
		{Local: "", Domain: "lure.example"},
		mail.Null,
	}
	for _, traps := range [][]mail.Address{
		{{Local: "trap", Domain: "lure.example"}, {Local: "MIXED", Domain: "lure.example"}},
		{{Local: "Trap", Domain: "lure.example"}, mail.Null},
	} {
		reg := NewTrapRegistry()
		ref := map[string]bool{}
		for _, a := range traps {
			reg.AddTrap(a)
			ref[a.Key()] = true
		}
		for _, frozen := range []bool{false, true} {
			if frozen {
				reg.Freeze()
			}
			for _, q := range queries {
				if got, want := reg.IsTrap(q), ref[q.Key()]; got != want {
					t.Errorf("traps %v frozen=%v: IsTrap(%q) = %v, the Key() set says %v", traps, frozen, q, got, want)
				}
			}
		}
	}
}
