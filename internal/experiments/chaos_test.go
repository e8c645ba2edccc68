package experiments

import (
	"fmt"
	"reflect"
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

// TestChaosRenderDeterministic: identically-seeded chaos reports are
// byte-identical, whatever the number of workers the lanes run on.
func TestChaosRenderDeterministic(t *testing.T) {
	plan := faults.DefaultChaosPlan()
	render := func(workers int) string {
		cfg := tiny(13)
		cfg.Workers = workers
		return Chaos(cfg, plan).Render()
	}
	a := render(1)
	for _, workers := range []int{2, 8} {
		if b := render(workers); a != b {
			t.Fatalf("chaos reports differ between 1 and %d workers:\n%s", workers, firstDiffs(a, b, 5))
		}
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

// TestChaosStaleAnswersFromCounts: the rbl-stale-answers row is the sum
// of the injector's "rbl:<name>/stale" tallies (the golden plan has no
// stale rule, so this is its only check).
func TestChaosStaleAnswersFromCounts(t *testing.T) {
	plan := &faults.Plan{Name: "stale-zone", Rules: []faults.Rule{
		{Target: "rbl:spamhaus", Kind: faults.KindStale, Probability: 0.5},
	}}
	rep := Chaos(tiny(11), plan)
	stale := rep.Faulted.FaultCounts["rbl:spamhaus/stale"]
	if stale == 0 || rep.Faulted.StaleAnswers != stale || rep.Base.StaleAnswers != 0 {
		t.Fatalf("stale answers base %d, faulted %d; counts %v",
			rep.Base.StaleAnswers, rep.Faulted.StaleAnswers, rep.Faulted.FaultCounts)
	}
	// A stale zone never errors, so nothing degrades; it only hides
	// listings, so the filter drops less.
	if n := rep.Faulted.FilterDegraded["rbl"]; n != 0 {
		t.Fatalf("stale answers degraded the rbl filter %d times", n)
	}
	if rep.Faulted.FilterDropped["rbl"] >= rep.Base.FilterDropped["rbl"] {
		t.Fatalf("rbl drops did not fall: base %d, faulted %d",
			rep.Base.FilterDropped["rbl"], rep.Faulted.FilterDropped["rbl"])
	}
	want := fmt.Sprintf("%-34s %12d %12d %+12d", "rbl-stale-answers", 0, stale, stale)
	if !strings.Contains(rep.Render(), want) {
		t.Fatalf("render lacks %q:\n%s", want, rep.Render())
	}
}

// TestRenderLeavesFaultPlanAlone: rendering a finished faulted run draws
// nothing from its fault plan. Fig. 12's offline SPF what-if describes
// the senders' published policy, so it reads the zone data, not the
// lanes' faulted resolvers. Every dns consultation times out, so any
// lookup the render made through a lane's seam would add to the counts.
func TestRenderLeavesFaultPlanAlone(t *testing.T) {
	cfg := tiny(7)
	cfg.FaultPlan = &faults.Plan{Rules: []faults.Rule{
		{Target: "dns", Kind: faults.KindTimeout},
	}}
	r := NewRun(cfg)
	counts := r.Fleet.FaultCounts()
	if counts["dns/timeout"] == 0 {
		t.Fatalf("the run never faulted: counts %v", counts)
	}
	if !strings.Contains(RenderAll(r), "Figure 12") {
		t.Fatal("render lacks Figure 12")
	}
	if got := r.Fleet.FaultCounts(); !reflect.DeepEqual(got, counts) {
		t.Fatalf("rendering injected faults: %v, was %v", got, counts)
	}
}
