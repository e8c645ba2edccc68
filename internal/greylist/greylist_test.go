package greylist

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

var (
	t0    = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	alice = mail.MustParseAddress("alice@example.com")
	bob   = mail.MustParseAddress("bob@corp.example")
)

func newStore(clk clock.Clock) *Store {
	return New(clk)
}

func TestFirstContactTempRejected(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	if v := g.Check("192.0.2.1", alice, bob); v != TempReject {
		t.Fatalf("first contact = %v, want temp-reject", v)
	}
	if g.Stats().FirstSeen != 1 {
		t.Fatalf("stats = %+v", g.Stats())
	}
}

func TestRetryAfterDelayPasses(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	g.Check("192.0.2.1", alice, bob)
	clk.Advance(20 * time.Minute)
	if v := g.Check("192.0.2.1", alice, bob); v != Accept {
		t.Fatalf("retry = %v, want accept", v)
	}
	// Subsequent deliveries are instant.
	clk.Advance(5 * 24 * time.Hour)
	if v := g.Check("192.0.2.1", alice, bob); v != Accept {
		t.Fatalf("known tuple = %v, want accept", v)
	}
	st := g.Stats()
	if st.Passed != 1 || st.KnownAccept != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEarlyRetryStillRejected(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	g.Check("192.0.2.1", alice, bob)
	clk.Advance(5 * time.Minute) // botnet hammering immediately
	if v := g.Check("192.0.2.1", alice, bob); v != TempReject {
		t.Fatalf("early retry = %v, want temp-reject", v)
	}
	// The clock keeps running from the ORIGINAL first-seen: a later
	// retry still passes.
	clk.Advance(11 * time.Minute)
	if v := g.Check("192.0.2.1", alice, bob); v != Accept {
		t.Fatal("legitimate retry after early attempt rejected")
	}
}

func TestRetryFromNeighbouringIPPasses(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	g.Check("192.0.2.1", alice, bob)
	clk.Advance(20 * time.Minute)
	// Large MTA farms retry from a different host in the same /24.
	if v := g.Check("192.0.2.99", alice, bob); v != Accept {
		t.Fatal("same-/24 retry rejected")
	}
	// A different /24 is a different tuple.
	if v := g.Check("198.51.100.1", alice, bob); v != TempReject {
		t.Fatal("foreign-network delivery accepted")
	}
}

func TestWindowExpiryRestarts(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	g.Check("192.0.2.1", alice, bob)
	clk.Advance(25 * time.Hour) // retry way past the window
	if v := g.Check("192.0.2.1", alice, bob); v != TempReject {
		t.Fatal("stale retry accepted")
	}
	clk.Advance(16 * time.Minute)
	if v := g.Check("192.0.2.1", alice, bob); v != Accept {
		t.Fatal("fresh cycle retry rejected")
	}
}

func TestPassTTLExpiry(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	g.Check("192.0.2.1", alice, bob)
	clk.Advance(delay + time.Minute)
	if g.Check("192.0.2.1", alice, bob) != Accept {
		t.Fatal("promotion failed")
	}
	clk.Advance(passTTL + time.Hour) // pass expired
	if v := g.Check("192.0.2.1", alice, bob); v != TempReject {
		t.Fatal("expired pass still accepted")
	}
}

func TestNullSenderNeverGreylisted(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	if v := g.Check("192.0.2.1", mail.Null, bob); v != Accept {
		t.Fatal("DSN greylisted — bounces would be lost")
	}
}

func TestDistinctTuplesIndependent(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	carol := mail.MustParseAddress("carol@corp.example")
	g.Check("192.0.2.1", alice, bob)
	if v := g.Check("192.0.2.1", alice, carol); v != TempReject {
		t.Fatal("different recipient shares tuple")
	}
	if g.Len() != 2 {
		t.Fatalf("tuples = %d", g.Len())
	}
}

func TestSweepDropsStaleTuples(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	for i := 0; i < 50; i++ {
		from := mail.Address{Local: fmt.Sprintf("s%d", i), Domain: "spam.example"}
		g.Check("100.64.0.9", from, bob) // never retried
	}
	clk.Advance(window + 2*time.Hour)
	g.Check("192.0.2.1", alice, bob) // triggers the hourly sweep
	if got := g.Len(); got != 1 {
		t.Fatalf("tuples after sweep = %d, want 1", got)
	}
}

func TestStringSummary(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	g.Check("192.0.2.1", alice, bob)
	if s := g.String(); !strings.Contains(s, "first=1") {
		t.Fatalf("String = %q", s)
	}
	if Accept.String() != "accept" || TempReject.String() != "temp-reject" {
		t.Fatal("verdict strings wrong")
	}
}

func TestConcurrentChecks(t *testing.T) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from := mail.Address{Local: fmt.Sprintf("s%d", i%8), Domain: "x.example"}
			g.Check("192.0.2.1", from, bob)
		}(i)
	}
	wg.Wait()
	if g.Len() != 8 {
		t.Fatalf("tuples = %d, want 8", g.Len())
	}
}

func BenchmarkCheck(b *testing.B) {
	clk := clock.NewSim(t0)
	g := newStore(clk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		from := mail.Address{Local: fmt.Sprintf("s%d", i%1000), Domain: "x.example"}
		g.Check("192.0.2.1", from, bob)
	}
}
