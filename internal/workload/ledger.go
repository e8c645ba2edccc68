package workload

import (
	"sync/atomic"
	"time"
)

// This file is the fleet's cross-lane effect ledger: the bookkeeping
// that lets the epoch barrier become *sparse*. Lanes stage their only
// cross-company side effects — spamtrap hits — in per-lane buffers
// (simnet lane.trapHits, appended lock-free on the lane goroutine). At
// every epoch rendezvous the coordinator consults the ledger predicate
// (barrierDue): if no lane staged an effect, no checker poll is due and
// the shared scheduler has nothing to drain, the barrier is skipped
// wholesale — the shared clock stays at the watermark (the last fired
// barrier) and no lane pays for cross-company synchronization it does
// not need. Determinism is preserved because the predicate depends only
// on lane-local state that is itself worker-count-invariant, so the
// fire/skip pattern — and with it every effect's virtual apply time —
// is identical for any worker count.

// SyncStats is a snapshot of the sparse-barrier counters accumulated
// across Run calls.
type SyncStats struct {
	// Epochs is the number of one-hour epochs executed.
	Epochs int64
	// BarriersFired counts epochs whose barrier ran the full cross-lane
	// work (clock advance, provider sweeps, trap-hit flush, checker
	// poll, state merge, sink flush).
	BarriersFired int64
	// BarriersSkipped counts epochs with no staged effect, skipped with
	// only a watermark bookkeeping update.
	BarriersSkipped int64
	// Steals is always 0: lanes are no longer dealt to workers, so none
	// is stolen. It stays only because the benchmark module reports it
	// as workload.steals, and goes when that metric does.
	Steals int64
	// TrapHitsApplied counts staged spamtrap hits applied at barriers.
	TrapHitsApplied int64
}

// syncLedger holds the counters behind SyncStats. Only the coordinator
// writes them, between epochs; atomics let another goroutine read them
// without racing it.
type syncLedger struct {
	epochs      atomic.Int64
	fired       atomic.Int64
	skipped     atomic.Int64
	trapApplied atomic.Int64
	// watermark is the virtual time of the last fired barrier, i.e. how
	// far the *shared* clock has advanced (lanes may be ahead of it
	// between fired barriers).
	watermark atomic.Int64 // unix nanos
}

// SyncStats returns the sparse-barrier counters.
func (f *Fleet) SyncStats() SyncStats {
	return SyncStats{
		Epochs:          f.ledger.epochs.Load(),
		BarriersFired:   f.ledger.fired.Load(),
		BarriersSkipped: f.ledger.skipped.Load(),
		TrapHitsApplied: f.ledger.trapApplied.Load(),
	}
}

// Watermark returns the virtual time of the last fired barrier (the
// fleet start before any barrier fired).
func (f *Fleet) Watermark() time.Time {
	if ns := f.ledger.watermark.Load(); ns != 0 {
		return time.Unix(0, ns).UTC()
	}
	return f.Start
}

// barrierDue reports whether the epoch ending at epochEnd produced or
// requires a cross-lane effect, i.e. whether the barrier must fire:
//
//   - a lane staged a spamtrap hit (trap → blocklist propagation must
//     apply at this epoch's timestamp, in company-name order);
//   - the §5.1 checker poll falls on this epoch;
//   - the shared scheduler holds an event at or before epochEnd
//     (externally scheduled work must run at its due time).
//
// Every input is deterministic and worker-count-invariant: trap staging
// is a pure function of lane execution, the checker period is config,
// and nothing inside an epoch schedules on the shared scheduler. The
// caller must have synchronized with all lanes (epoch rendezvous).
func (f *Fleet) barrierDue(epochEnd time.Time) bool {
	if f.Net.StagedTrapHits() > 0 {
		return true
	}
	if f.Cfg.CheckerPeriod > 0 && epochEnd.Sub(f.Start)%f.Cfg.CheckerPeriod == 0 {
		return true
	}
	if at, ok := f.Sched.NextAt(); ok && !at.After(epochEnd) {
		return true
	}
	return false
}

// fireBarrier runs the full cross-lane barrier at epochEnd: advance the
// shared clock from the watermark, drain the shared scheduler, expire
// blocklist listings eagerly (Provider.Sweep), apply staged trap hits
// in company-name order, invalidate the RBL memo for exactly the IPs
// whose answers may have changed, poll the §5.1 checker when due, and
// fold lane staging into the shared state. All lanes are parked.
func (f *Fleet) fireBarrier(epochEnd time.Time) {
	f.ledger.fired.Add(1)
	f.Clk.AdvanceTo(epochEnd)
	f.Sched.RunUntil(epochEnd)

	// Provider sweeps close expired listings before the staged hits
	// apply — the same visible order the lazy expiry used to give (an
	// expired listing is dead before a hit at epochEnd can re-list).
	// The filter list's delisted IPs plus every trap-hit source IP form
	// the precise invalidation set for the RBL memo.
	var stale []string
	filter := f.filterProvider()
	for _, p := range f.Providers {
		swept := p.Sweep(epochEnd)
		if p == filter && f.RBLCache != nil {
			stale = append(stale, swept...)
		}
	}
	var onIP func(string)
	if f.RBLCache != nil {
		onIP = func(ip string) { stale = append(stale, ip) }
	}
	if applied := f.Net.FlushTrapHits(onIP); applied > 0 {
		f.ledger.trapApplied.Add(int64(applied))
	}
	if len(stale) > 0 {
		f.RBLCache.Invalidate(stale...)
	}

	if f.Cfg.CheckerPeriod > 0 {
		if since := epochEnd.Sub(f.Start); since%f.Cfg.CheckerPeriod == 0 {
			f.Checker.Poll(f.allOutIPs())
		}
	}
	f.mergeLaneState()
	f.flushSinks()
	f.ledger.watermark.Store(epochEnd.UnixNano())
}
