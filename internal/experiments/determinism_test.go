package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/workload"
)

// TestWorkerCountInvariance is the parallel-fleet determinism contract:
// the same seed must produce bit-for-bit identical results whether the
// fleet runs serially or on several workers. Companies execute on
// independent lanes with derived RNG streams and join at hourly epoch
// barriers, so the worker count can only change scheduling, never
// outcomes — down to the last character of every rendered artifact.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full Quick runs")
	}
	run := func(workers int) *Run {
		cfg := Quick(7)
		cfg.Workers = workers
		return NewRun(cfg)
	}
	serial := run(1)
	lcS, gS, emS := Lifecycle(serial), General(serial), engineMetrics(serial)
	renderS, syncS := RenderAll(serial), serial.Fleet.SyncStats()
	for _, workers := range []int{2, 4, 8, 16} {
		parallel := run(workers)
		if lcP := Lifecycle(parallel); !reflect.DeepEqual(lcS, lcP) {
			t.Errorf("Lifecycle diverges:\nworkers=1: %+v\nworkers=%d: %+v", lcS, workers, lcP)
		}
		if gP := General(parallel); !reflect.DeepEqual(gS, gP) {
			t.Errorf("General diverges:\nworkers=1: %+v\nworkers=%d: %+v", gS, workers, gP)
		}
		if emP := engineMetrics(parallel); !reflect.DeepEqual(emS, emP) {
			t.Errorf("engine metrics diverge:\nworkers=1: %+v\nworkers=%d: %+v", emS, workers, emP)
		}
		if diff := firstDiffs(renderS, RenderAll(parallel), 5); diff != "" {
			t.Errorf("RenderAll diverges between workers=1 and workers=%d:\n%s", workers, diff)
		}
		// The sparse fire/skip pattern is part of the contract: a skipped
		// barrier under one worker count but not another would mean the
		// predicate saw different staged effects.
		if syncP := parallel.Fleet.SyncStats(); !reflect.DeepEqual(syncS, syncP) {
			t.Errorf("barrier pattern diverges:\nworkers=1: %+v\nworkers=%d: %+v", syncS, workers, syncP)
		}
	}
}

// TestSurgeWorkerCountInvariance extends the determinism contract to
// the overload path: a 10× burst with per-lane admission controllers,
// per-lane surge injectors and shed-retry timers must produce
// bit-for-bit identical stats for any worker count.
func TestSurgeWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two surge runs")
	}
	mk := func(workers int) (workload.OverloadStats, []core.Metrics) {
		cfg := surgeQuick(7)
		cfg.Workers = workers
		cfg.Overload = SurgeOverloadConfig()
		cfg.FaultPlan = SurgeLatencyPlan()
		cfg.SurgeBursts = []workload.SurgeBurst{{Day: 1, Hour: 10, Hours: 3, Intensity: 10}}
		run := NewRun(cfg)
		return run.Fleet.OverloadStats(), engineMetrics(run)
	}
	sS, emS := mk(1)
	sP, emP := mk(8)
	if !reflect.DeepEqual(sS, sP) {
		t.Errorf("overload stats diverge across worker counts:\nworkers=1: %+v\nworkers=8: %+v", sS, sP)
	}
	if !reflect.DeepEqual(emS, emP) {
		t.Errorf("engine metrics diverge across worker counts:\nworkers=1: %+v\nworkers=8: %+v", emS, emP)
	}
	if sS.Ctl.ShedTotal() == 0 {
		t.Error("surge run shed nothing; invariance check is vacuous")
	}
}

// TestChaosSurgeWorkerCountInvariance runs the heaviest combined
// configuration — the surge latency rule followed by the default chaos
// plan, on every lane's own injector, with admission controllers and a
// 10× burst — on one worker and on eight, and checks that the worker
// count changes nothing, the injected-fault tallies included. It also
// asserts the sparse-barrier ledger is genuinely exercised on this
// path.
func TestChaosSurgeWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two chaos+surge runs")
	}
	mk := func(workers int) *Run {
		cfg := surgeQuick(7)
		cfg.Workers = workers
		cfg.FaultPlan = SurgeLatencyPlan()
		cfg.FaultPlan.Rules = append(cfg.FaultPlan.Rules, faults.DefaultChaosPlan().Rules...)
		cfg.Overload = SurgeOverloadConfig()
		cfg.SurgeBursts = []workload.SurgeBurst{{Day: 1, Hour: 10, Hours: 3, Intensity: 10}}
		return NewRun(cfg)
	}
	a, b := mk(1), mk(8)
	if sA, sB := a.Fleet.OverloadStats(), b.Fleet.OverloadStats(); !reflect.DeepEqual(sA, sB) {
		t.Errorf("overload stats diverge under faults:\nworkers=1: %+v\nworkers=8: %+v", sA, sB)
	}
	if emA, emB := engineMetrics(a), engineMetrics(b); !reflect.DeepEqual(emA, emB) {
		t.Errorf("engine metrics diverge under faults:\nworkers=1: %+v\nworkers=8: %+v", emA, emB)
	}
	fcA, fcB := a.Fleet.FaultCounts(), b.Fleet.FaultCounts()
	if !reflect.DeepEqual(fcA, fcB) {
		t.Errorf("fault counts diverge:\nworkers=1: %v\nworkers=8: %v", fcA, fcB)
	}
	for _, key := range []string{"surge/latency", "rbl:spamhaus/outage", "dns/timeout"} {
		if fcA[key] == 0 {
			t.Errorf("fault %s never injected: %v", key, fcA)
		}
	}
	sync := a.Fleet.SyncStats()
	if !reflect.DeepEqual(sync, b.Fleet.SyncStats()) {
		t.Errorf("barrier pattern diverges under faults: %+v vs %+v", sync, b.Fleet.SyncStats())
	}
	if sync.BarriersFired == 0 || sync.BarriersFired+sync.BarriersSkipped != sync.Epochs {
		t.Errorf("ledger not exercised on the chaos path: %+v", sync)
	}
}

// TestPairedAblationsPinned pins the SPF and greylisting ablations at
// (7, 6, 4) field for field, as they read when each ablation built its
// own fleet. Both arms now build through newRun at the shared paired
// sizing (users /8, volume /12), which must reproduce them exactly.
func TestPairedAblationsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four fleet simulations")
	}
	wantSPF := SPFOnlineResult{
		ChallengesBaseline: 328, ChallengesWithSPF: 319, ChallengeReduction: 0.027439024390243927,
		SolvedBaseline: 13, SolvedWithSPF: 13, SolvedLost: 0, SPFDrops: 11,
	}
	if got := SPFOnline(7, 6, 4); got != wantSPF {
		t.Errorf("SPFOnline(7, 6, 4) =\n%+v\nwant\n%+v", got, wantSPF)
	}
	wantGrey := GreylistResult{
		ChallengesBaseline: 328, ChallengesWithGrey: 81, ChallengeReduction: 0.7530487804878049,
		WhiteBaseline: 239, WhiteWithGrey: 271, TrapHitsBaseline: 3, TrapHitsWithGrey: 1,
	}
	if got := GreylistAblation(7, 6, 4); got != wantGrey {
		t.Errorf("GreylistAblation(7, 6, 4) =\n%+v\nwant\n%+v", got, wantGrey)
	}
}

// engineMetrics lists every company's engine counters, in company order.
func engineMetrics(r *Run) []core.Metrics {
	out := make([]core.Metrics, len(r.Fleet.Companies))
	for i, c := range r.Fleet.Companies {
		out[i] = c.Engine.Metrics()
	}
	return out
}
