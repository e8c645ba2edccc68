package workload

import (
	"testing"
	"time"
)

// TestSparseBarrierLedger pins the sparse-synchronization accounting:
// every one-hour epoch is either fired or skipped, a stock run skips a
// meaningful fraction (that is the point of the ledger), and the
// watermark lands on the last fired barrier — the end of the run.
func TestSparseBarrierLedger(t *testing.T) {
	f := NewFleet(smallConfig(3))
	days := 3
	f.Run(days)

	st := f.SyncStats()
	if want := int64(days * 24); st.Epochs != want {
		t.Fatalf("epochs = %d, want %d", st.Epochs, want)
	}
	if st.BarriersFired+st.BarriersSkipped != st.Epochs {
		t.Fatalf("fired %d + skipped %d != epochs %d",
			st.BarriersFired, st.BarriersSkipped, st.Epochs)
	}
	if st.BarriersFired == 0 {
		t.Fatal("no barrier ever fired")
	}
	if st.BarriersSkipped == 0 {
		t.Fatal("stock config skipped no barriers; sparse path untested")
	}
	// The 4-hourly checker poll alone forces 6 barriers/day, and the
	// day's final epoch always fires.
	if min := int64(days * 6); st.BarriersFired < min {
		t.Fatalf("fired = %d, want >= %d (checker-period barriers)", st.BarriersFired, min)
	}
	if got, want := f.Watermark(), f.Start.Add(time.Duration(days)*24*time.Hour); !got.Equal(want) {
		t.Fatalf("watermark = %v, want %v", got, want)
	}
	// The shared clock is parked on the watermark between Run calls.
	if !f.Clk.Now().Equal(f.Watermark()) {
		t.Fatalf("clock %v != watermark %v", f.Clk.Now(), f.Watermark())
	}
}

// TestFleetRBLCacheHitRate is the acceptance gate for the explicit-
// invalidation RBL memo: across a fleet run the overwhelming majority of
// blocklist lookups must be served from the memo. (The old TTL+
// generation cache measured ~5% here.)
func TestFleetRBLCacheHitRate(t *testing.T) {
	f := NewFleet(smallConfig(5))
	f.Run(3)

	st := f.RBLCache.Stats()
	if st.Lookups() < 1000 {
		t.Fatalf("only %d RBL lookups; run too small to judge hit rate", st.Lookups())
	}
	if rate := st.HitRate(); rate < 0.85 {
		t.Fatalf("RBL cache hit rate = %.3f, want >= 0.85 (stats %+v)", rate, st)
	}
}
