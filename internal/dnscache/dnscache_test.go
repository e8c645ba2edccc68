package dnscache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/faults/seam"
	"repro/internal/rbl"
)

var t0 = time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC)

// countingResolver wraps a resolver and counts the A and resolvability
// calls that reach it, so tests can assert exactly how many lookups went
// past the cache.
type countingResolver struct {
	dnssim.Resolver
	a, res atomic.Int64
}

func (c *countingResolver) LookupA(h string) ([]string, error) {
	c.a.Add(1)
	return c.Resolver.LookupA(h)
}
func (c *countingResolver) ResolvableErr(d string) (bool, error) {
	c.res.Add(1)
	return c.Resolver.ResolvableErr(d)
}

func newFixture() (*countingResolver, *clock.Sim, *Cache) {
	srv := dnssim.NewServer()
	srv.AddA("mail.example.com", "10.0.0.1")
	back := &countingResolver{Resolver: srv}
	clk := clock.NewSim(t0)
	// Gen reads through to the wrapped server so mutations invalidate.
	c := New(back, Options{Clock: clk, TTL: 30 * time.Minute, NegTTL: 10 * time.Minute, Gen: srv.Gen})
	return back, clk, c
}

func TestTTLExpiry(t *testing.T) {
	back, clk, c := newFixture()

	for i := 0; i < 5; i++ {
		ips, err := c.LookupA("mail.example.com")
		if err != nil || len(ips) != 1 || ips[0] != "10.0.0.1" {
			t.Fatalf("lookup %d: got %v, %v", i, ips, err)
		}
	}
	if got := back.a.Load(); got != 1 {
		t.Fatalf("backend A queries before expiry = %d, want 1", got)
	}

	clk.Advance(29 * time.Minute)
	if _, err := c.LookupA("mail.example.com"); err != nil {
		t.Fatal(err)
	}
	if got := back.a.Load(); got != 1 {
		t.Fatalf("entry expired early: %d backend queries", got)
	}

	clk.Advance(time.Minute) // exactly at TTL: entry is dead
	if _, err := c.LookupA("mail.example.com"); err != nil {
		t.Fatal(err)
	}
	if got := back.a.Load(); got != 2 {
		t.Fatalf("backend A queries after expiry = %d, want 2", got)
	}
}

func TestNegativeCacheHits(t *testing.T) {
	back, clk, c := newFixture()

	_, err1 := c.LookupA("nosuch.example.net")
	if !errors.Is(err1, dnssim.ErrNXDomain) {
		t.Fatalf("first lookup error = %v, want NXDOMAIN", err1)
	}
	_, err2 := c.LookupA("nosuch.example.net")
	if !errors.Is(err2, dnssim.ErrNXDomain) {
		t.Fatalf("second lookup error = %v, want NXDOMAIN", err2)
	}
	if got := back.a.Load(); got != 1 {
		t.Fatalf("NXDOMAIN not negative-cached: %d backend queries", got)
	}

	// Unresolvable-domain probes are negatives too, with the shorter TTL.
	if ok, err := c.ResolvableErr("nosuch.example.net"); ok || err != nil {
		t.Fatalf("ResolvableErr = %v, %v", ok, err)
	}
	if ok, _ := c.ResolvableErr("nosuch.example.net"); ok {
		t.Fatal("cached resolvable answer changed")
	}
	if got := back.res.Load(); got != 1 {
		t.Fatalf("resolvable probes = %d, want 1", got)
	}

	// Negative entries use NegTTL, not the (longer) positive TTL.
	clk.Advance(10 * time.Minute)
	if _, err := c.LookupA("nosuch.example.net"); !errors.Is(err, dnssim.ErrNXDomain) {
		t.Fatalf("post-expiry error = %v", err)
	}
	if got := back.a.Load(); got != 2 {
		t.Fatalf("negative entry outlived NegTTL: %d backend queries", got)
	}
}

// blockingResolver parks every LookupA until release is closed, so a
// test can pile goroutines onto one in-flight fetch.
type blockingResolver struct {
	release chan struct{}
	started chan struct{} // receives one token per backend call
	calls   atomic.Int64
}

func (b *blockingResolver) LookupA(string) ([]string, error) {
	b.calls.Add(1)
	b.started <- struct{}{}
	<-b.release
	return []string{"10.9.9.9"}, nil
}
func (b *blockingResolver) LookupMX(string) ([]dnssim.MX, error) { return nil, dnssim.ErrNoRecord }
func (b *blockingResolver) LookupPTR(string) (string, error)     { return "", dnssim.ErrNXDomain }
func (b *blockingResolver) LookupTXT(string) ([]string, error)   { return nil, dnssim.ErrNoRecord }
func (b *blockingResolver) ResolvableErr(string) (bool, error)   { return true, nil }

func TestSingleflightCollapse(t *testing.T) {
	back := &blockingResolver{release: make(chan struct{}), started: make(chan struct{}, 16)}
	c := New(back, Options{Clock: clock.NewSim(t0)})

	const n = 8
	var wg sync.WaitGroup
	results := make([][]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ips, err := c.LookupA("hot.example.com")
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = ips
		}(i)
	}

	<-back.started // one fetch reached the backend
	close(back.release)
	wg.Wait()

	if got := back.calls.Load(); got != 1 {
		t.Fatalf("backend calls = %d, want 1 (stampede not collapsed)", got)
	}
	for i, r := range results {
		if len(r) != 1 || r[0] != "10.9.9.9" {
			t.Fatalf("goroutine %d got %v", i, r)
		}
	}
}

func TestInvalidationOnInjectedFault(t *testing.T) {
	srv := dnssim.NewServer()
	srv.AddA("mail.example.com", "10.0.0.1")
	clk := clock.NewSim(t0)
	// The resolver times out through the product's fault seam during the
	// second simulated hour, and answers before and after it.
	set := faults.New(&faults.Plan{Rules: []faults.Rule{
		{Target: "dns", Kind: faults.KindTimeout, FromHour: 1, UntilHour: 2},
	}}, 1, clk)
	back := &countingResolver{Resolver: seam.Resolver(srv, set)}
	c := New(back, Options{Clock: clk, TTL: 30 * time.Minute, NegTTL: 10 * time.Minute, Gen: srv.Gen})

	if ok, err := c.ResolvableErr("mail.example.com"); !ok || err != nil {
		t.Fatalf("warm probe = %v, %v", ok, err)
	}
	clk.Advance(time.Hour) // the warm entry has expired; the fault is on
	for i := 0; i < 2; i++ {
		ok, err := c.ResolvableErr("mail.example.com")
		if ok || err == nil || !dnssim.IsTemporary(err) {
			t.Fatalf("probe %d under fault = %v, %v; want temporary error", i, ok, err)
		}
	}
	// Both probes must have reached the backend: temporary failures are
	// never cached.
	if got := back.res.Load(); got != 3 {
		t.Fatalf("resolvable probes = %d, want 3 (1 warm + 2 faulted)", got)
	}
	// Once the fault window closes the next probe answers at once.
	clk.Advance(time.Hour)
	if ok, err := c.ResolvableErr("mail.example.com"); !ok || err != nil {
		t.Fatalf("post-fault probe = %v, %v", ok, err)
	}

	// A new record must flip a cached NXDOMAIN immediately, well inside
	// the negative TTL.
	if _, err := c.LookupA("new.example.com"); !errors.Is(err, dnssim.ErrNXDomain) {
		t.Fatalf("LookupA before the record = %v, want NXDOMAIN", err)
	}
	srv.AddA("new.example.com", "10.0.0.2")
	if ips, err := c.LookupA("new.example.com"); err != nil || len(ips) != 1 || ips[0] != "10.0.0.2" {
		t.Fatalf("LookupA after AddA = %v, %v; the cache masked the new record", ips, err)
	}
}

func TestRBLCacheMemoizationAndInvalidation(t *testing.T) {
	clk := clock.NewSim(t0)
	p := rbl.NewProvider("testlist", rbl.Policy{HitThreshold: 1, Window: time.Hour, ListingTTL: 2 * time.Hour}, clk)
	c := NewRBL(p, clk, 30*time.Minute)

	for i := 0; i < 4; i++ {
		if listed, err := c.Query("10.1.1.1"); listed || err != nil {
			t.Fatalf("query %d = %v, %v", i, listed, err)
		}
	}

	// A new listing is a provider mutation: the memo must not mask it.
	p.ReportTrapHit("10.1.1.1")
	if listed, _ := c.Query("10.1.1.1"); !listed {
		t.Fatal("memo masked a fresh listing")
	}

	// Static adds invalidate too.
	if listed, _ := c.Query("10.2.2.2"); listed {
		t.Fatal("unexpected listing")
	}
	p.AddStatic("10.2.2.2")
	if listed, _ := c.Query("10.2.2.2"); !listed {
		t.Fatal("memo masked AddStatic")
	}

	// Listing expiry on the virtual clock surfaces through the memo: the
	// advance pushes the entry past its TTL, and the re-query sees the
	// provider's pure-read answer for the now-expired listing.
	clk.Advance(3 * time.Hour)
	if listed, _ := c.Query("10.1.1.1"); listed {
		t.Fatal("memo served an expired listing")
	}

	// Within its TTL a memoized answer stands although the provider's
	// would differ: a listing that lapses on the clock, with no sweep,
	// bumps no generation.
	p.ReportTrapHit("10.3.3.3") // listed until +2h
	clk.Advance(time.Hour + 50*time.Minute)
	if listed, _ := c.Query("10.3.3.3"); !listed {
		t.Fatal("fresh listing not seen")
	}
	clk.Advance(20 * time.Minute) // the listing has lapsed; the memo has 10 min left
	if p.IsListed("10.3.3.3") {
		t.Fatal("provider still lists a lapsed IP")
	}
	if listed, _ := c.Query("10.3.3.3"); !listed {
		t.Fatal("memo did not serve its answer within the TTL")
	}
	clk.Advance(10 * time.Minute)
	if listed, _ := c.Query("10.3.3.3"); listed {
		t.Fatal("memo outlived its TTL")
	}
}

// TestRBLCacheHitRateUnderTrapExtensions reproduces the fleet's real
// query mix: an already-listed botnet IP keeps hitting spamtraps (each
// hit extends its listing) while the filter chain re-queries a small set
// of IPs. An extension cannot change any answer, so it must not flush
// the memo — this is the regression test for the bug that collapsed the
// fleet's RBL hit rate to ~5%.
func TestRBLCacheHitRateUnderTrapExtensions(t *testing.T) {
	clk := clock.NewSim(t0)
	p := rbl.NewProvider("trapfed",
		rbl.Policy{HitThreshold: 1, Window: 24 * time.Hour, ListingTTL: 72 * time.Hour}, clk)
	c := NewRBL(p, clk, 30*time.Minute)

	p.ReportTrapHit("203.0.113.9") // crosses the threshold: listed (gen bump)
	gen := p.Gen()

	ips := []string{"203.0.113.9", "198.51.100.1", "198.51.100.2", "198.51.100.3"}
	for round := 0; round < 200; round++ {
		for _, ip := range ips {
			listed, err := c.Query(ip)
			if err != nil {
				t.Fatal(err)
			}
			if want := ip == "203.0.113.9"; listed != want {
				t.Fatalf("round %d: Query(%s) = %v, want %v", round, ip, listed, want)
			}
		}
		// The listed IP hits another trap every round, extending its
		// listing each time.
		p.ReportTrapHit("203.0.113.9")
		clk.Advance(time.Minute)
	}

	// The memo flushes on a generation change, so 200 extensions must
	// not move the generation.
	if g := p.Gen(); g != gen {
		t.Fatalf("listing extensions moved the provider generation %d -> %d, flushing the memo each time", gen, g)
	}
}
