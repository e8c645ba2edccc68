package main

import (
	"testing"
)

// TestSmoke runs every workload for a fraction of a second against
// freshly built binaries, and one traced run, so that a change to the
// programs' flags, replies, /metrics names or output formats — or to an
// internal API the probes compile against — breaks a test rather than
// the next measurement. It checks outputs, never speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	if e.host.NProc < 2 {
		t.Skip("needs 2 CPUs")
	}
	e.quick = true
	if err := e.build(true); err != nil {
		t.Fatal(err)
	}
	for _, w := range e.spec.Workloads {
		fn := runnerFor(w.Name)
		if fn == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the runner does not implement", w.Name)
		}
		res, err := fn(e, w.Name, 1, 0.5, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed > 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.Name, res.Failed, res.Attempted, res.Problems)
		}
		for _, m := range e.spec.EndToEnd {
			if v := res.Metrics[m.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, m.Name, v)
			}
		}
	}

	res, err := runLive(e, "live_gray_flood", 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Errorf("traced run: %v", res.Problems)
	}
	declared := map[string]bool{}
	for _, m := range e.spec.PerLayer {
		declared[m.Name] = true
	}
	for name := range res.Metrics {
		if !declared[name] {
			t.Errorf("traced run reports %s, which BENCHMARK.json does not declare", name)
		}
	}
	for _, name := range []string{"gateway.deliver_ns", "wal.appends_per_tx", "store.recover_s", "outbound.drain_per_s", "smtp.session_ns_per_tx", "trace.overhead_ratio"} {
		if res.Metrics[name] == 0 {
			t.Errorf("traced run reports no %s", name)
		}
	}
}
