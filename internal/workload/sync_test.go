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

// TestFleetZoneStaticDuringRun pins the premise that lets the fleet
// read its in-memory zone without a resolver cache: no DNS record
// changes once NewFleet returns. A change that mutates the zone mid-run
// must put coherence back in front of every lane's lookups.
func TestFleetZoneStaticDuringRun(t *testing.T) {
	f := NewFleet(smallConfig(5))
	before := f.DNS.Gen()
	f.Run(3)
	if after := f.DNS.Gen(); after != before {
		t.Fatalf("DNS generation moved during Run: %d -> %d", before, after)
	}
}
