package experiments

import (
	"strings"
	"testing"

	"repro/internal/faults"
)

// tiny keeps the double-run chaos test fast.
func tiny(seed int64) RunConfig {
	return RunConfig{Seed: seed, Companies: 4, Days: 2, UserScale: 0.1, VolumeScale: 0.05}
}

func TestChaosRBLBlackoutFailsOpen(t *testing.T) {
	plan := &faults.Plan{Name: "rbl-blackout", Rules: []faults.Rule{
		{Target: "rbl:*", Kind: faults.KindOutage}, // 100% provider outage
	}}
	rep := Chaos(tiny(11), plan)

	// The clean run exercises the rbl filter normally...
	if rep.Base.FilterDropped["rbl"] == 0 {
		t.Fatal("base run dropped nothing via rbl; workload too small to test")
	}
	if rep.Base.FilterDegraded["rbl"] != 0 {
		t.Fatalf("base run degraded %d times with no fault plan", rep.Base.FilterDegraded["rbl"])
	}
	// ...while the blackout run classifies everything via the fail-open
	// path: zero rbl drops, every rbl evaluation degraded, and the spam
	// the list would have caught is challenged instead of lost.
	if got := rep.Faulted.FilterDropped["rbl"]; got != 0 {
		t.Fatalf("faulted run still dropped %d via rbl during a 100%% outage", got)
	}
	if rep.Faulted.FilterDegraded["rbl"] == 0 {
		t.Fatal("faulted run recorded no rbl degradation")
	}
	if rep.Faulted.ChallengesSent <= rep.Base.ChallengesSent {
		t.Fatalf("challenges did not rise under the blackout: base %d, faulted %d",
			rep.Base.ChallengesSent, rep.Faulted.ChallengesSent)
	}
	// The workload itself is unchanged: same seed, same incoming volume.
	if rep.Base.Incoming != rep.Faulted.Incoming {
		t.Fatalf("incoming differs: base %d, faulted %d", rep.Base.Incoming, rep.Faulted.Incoming)
	}
	if rep.Faulted.FaultCounts["rbl:spamhaus/outage"] == 0 {
		t.Fatalf("injector counts missing the outage: %v", rep.Faulted.FaultCounts)
	}
}

func TestChaosRenderDeterministic(t *testing.T) {
	plan := faults.DefaultChaosPlan()
	a := Chaos(tiny(13), plan).Render()
	b := Chaos(tiny(13), plan).Render()
	if a != b {
		t.Fatal("identically-seeded chaos reports differ")
	}
	for _, want := range []string{"default-chaos", "spool-gray", "filter-degraded/rbl", "injected faults"} {
		if !strings.Contains(a, want) {
			t.Errorf("report missing %q:\n%s", want, a)
		}
	}
}

// TestChaosPlanFile runs the sample fault plan that README cites for
// `reproduce -fault-plan` through the quick preset: the file must load,
// every rule that reaches the fleet must fire, and the render is pinned
// in testdata like the clean reproduction.
func TestChaosPlanFile(t *testing.T) {
	if testing.Short() {
		t.Skip("two Quick runs")
	}
	plan, err := faults.LoadFile("testdata/chaos-plan.json")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name != "example-chaos" || len(plan.Rules) != 4 {
		t.Fatalf("plan = %q with %d rules, want example-chaos with 4", plan.Name, len(plan.Rules))
	}
	rep := Chaos(Quick(7), plan)
	if rep.Base.Incoming == 0 || rep.Base.Incoming != rep.Faulted.Incoming {
		t.Fatalf("incoming: base %d, faulted %d", rep.Base.Incoming, rep.Faulted.Incoming)
	}
	// The simulated fleet has no smarthost, so that rule never fires.
	for _, key := range []string{"rbl:spamhaus/outage", "dns/timeout", "av/error"} {
		if rep.Faulted.FaultCounts[key] == 0 {
			t.Errorf("fault %s never injected: %v", key, rep.Faulted.FaultCounts)
		}
	}
	if got := rep.Faulted.FilterDropped["rbl"]; got != 0 {
		t.Errorf("faulted run dropped %d via rbl during a 100%% outage", got)
	}
	checkGolden(t, "testdata/chaos-quick-seed7.txt", rep.Render())
}
