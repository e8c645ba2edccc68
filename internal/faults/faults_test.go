package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

var epoch = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

func TestParseAndValidate(t *testing.T) {
	plan, err := Parse(strings.NewReader(`{
		"name": "p",
		"rules": [
			{"target": "dns", "kind": "timeout", "probability": 0.5},
			{"target": "rbl:*", "kind": "outage"},
			{"target": "dns", "kind": "latency", "latency": "250ms"},
			{"target": "store", "kind": "error", "from_hour": 24, "until_hour": 48}
		]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(plan.Rules) != 4 || plan.Name != "p" {
		t.Fatalf("unexpected plan: %+v", plan)
	}
	if got := time.Duration(plan.Rules[2].Latency); got != 250*time.Millisecond {
		t.Errorf("latency = %v, want 250ms", got)
	}

	bad := []string{
		`{"rules": [{"target": "", "kind": "timeout"}]}`,
		`{"rules": [{"target": "dns", "kind": "meteor"}]}`,
		`{"rules": [{"target": "dns", "kind": "timeout", "probability": 1.5}]}`,
		`{"rules": [{"target": "dns", "kind": "latency"}]}`,
		`{"rules": [{"target": "dns", "kind": "timeout", "from_hour": 5, "until_hour": 5}]}`,
		`{"rules": [{"target": "dns", "kind": "timeout", "surprise": true}]}`,
	}
	for _, s := range bad {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("Parse(%s) accepted a malformed plan", s)
		}
	}
}

func TestWildcardFirstMatchWins(t *testing.T) {
	// A specific rule listed before the wildcard takes precedence.
	plan := &Plan{Rules: []Rule{
		{Target: "rbl:spamhaus", Kind: KindStale},
		{Target: "rbl:*", Kind: KindOutage},
	}}
	inj := New(plan, 1, clock.NewSim(epoch))

	if d := inj.Decide("rbl:spamhaus", 0); d.Kind != KindStale || d.Err != nil {
		t.Errorf("specific rule: got %+v, want stale", d)
	}
	if d := inj.Decide("rbl:cbl", 0); !errors.Is(d.Err, ErrOutage) {
		t.Errorf("wildcard rule: got %+v, want outage", d)
	}
	if d := inj.Decide("dns", 0); d.Err != nil || d.Kind != "" {
		t.Errorf("unmatched target: got %+v, want zero decision", d)
	}
}

func TestScheduleWindow(t *testing.T) {
	clk := clock.NewSim(epoch)
	plan := &Plan{Rules: []Rule{
		{Target: "dns", Kind: KindOutage, FromHour: 2, UntilHour: 4},
	}}
	inj := New(plan, 1, clk)

	if d := inj.Decide("dns", 0); d.Err != nil {
		t.Errorf("before window: got %v", d.Err)
	}
	clk.Advance(3 * time.Hour)
	if d := inj.Decide("dns", 0); !errors.Is(d.Err, ErrOutage) {
		t.Errorf("inside window: got %v, want outage", d.Err)
	}
	clk.Advance(2 * time.Hour)
	if d := inj.Decide("dns", 0); d.Err != nil {
		t.Errorf("after window: got %v", d.Err)
	}
}

func TestLatencyAgainstDeadline(t *testing.T) {
	plan := &Plan{Rules: []Rule{
		{Target: "dns", Kind: KindLatency, Latency: Duration(2 * time.Second)},
	}}
	inj := New(plan, 1, clock.NewSim(epoch))

	// Over-deadline latency becomes a timeout error.
	if d := inj.Decide("dns", time.Second); !errors.Is(d.Err, ErrTimeout) {
		t.Errorf("2s latency vs 1s deadline: got %+v, want timeout", d)
	}
	// Sub-deadline latency is a harmless delay.
	if d := inj.Decide("dns", 5*time.Second); d.Err != nil || d.Latency != 2*time.Second {
		t.Errorf("2s latency vs 5s deadline: got %+v", d)
	}
	// No deadline: latency faults never error.
	if d := inj.Decide("dns", 0); d.Err != nil {
		t.Errorf("no deadline: got %v", d.Err)
	}
}

func TestSeededDeterminism(t *testing.T) {
	plan := &Plan{Rules: []Rule{
		{Target: "dns", Kind: KindTimeout, Probability: 0.3},
		{Target: "rbl:*", Kind: KindOutage, Probability: 0.5},
	}}
	run := func() []bool {
		inj := New(plan, 99, clock.NewSim(epoch))
		var fired []bool
		for i := 0; i < 200; i++ {
			fired = append(fired, inj.Decide("dns", 0).Err != nil)
			fired = append(fired, inj.Decide("rbl:spamhaus", 0).Err != nil)
		}
		return fired
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically-seeded runs", i)
		}
	}
	// And probability actually thins the stream.
	n := 0
	for _, f := range a {
		if f {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Errorf("probabilistic rules fired %d/%d times", n, len(a))
	}
}

func TestCountsAndNilPlan(t *testing.T) {
	inj := New(nil, 1, clock.NewSim(epoch))
	if d := inj.Decide("dns", 0); d.Err != nil || d.Kind != "" {
		t.Fatalf("nil plan injected %+v", d)
	}

	inj = New(&Plan{Rules: []Rule{{Target: "av", Kind: KindError}}}, 1, clock.NewSim(epoch))
	for i := 0; i < 3; i++ {
		inj.Decide("av", 0)
	}
	inj.Decide("dns", 0)
	if got := inj.Counts()["av/error"]; got != 3 {
		t.Errorf("Counts[av/error] = %d, want 3", got)
	}
	if got := inj.Counts(); len(got) != 1 {
		t.Errorf("Counts = %v, want only av/error: a consultation that fires nothing is not counted", got)
	}
}

func TestDescribe(t *testing.T) {
	if got := (*Plan)(nil).Describe(); got != "no active fault plan" {
		t.Errorf("nil Describe = %q", got)
	}
	desc := DefaultChaosPlan().Describe()
	for _, want := range []string{"default-chaos", "rbl:* outage p=1.00", "dns timeout p=0.05"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}

func TestValidateRejectsUnknownTargets(t *testing.T) {
	bad := []string{"dsn", "smartohst", "rbl", "av2", "surge-x", "q*", "domain:", "wal-spool2", "outbound", "spool"}
	for _, target := range bad {
		p := &Plan{Rules: []Rule{{Target: target, Kind: KindTimeout}}}
		err := p.Validate()
		if err == nil {
			t.Errorf("Validate accepted unknown target %q", target)
			continue
		}
		if !strings.Contains(err.Error(), "dns") || !strings.Contains(err.Error(), "rbl:<name>") {
			t.Errorf("error for %q should list valid targets, got: %v", target, err)
		}
	}
	good := []string{
		"dns", "av", "smarthost", "smarthost-dial", "store", "reputation",
		"surge", "rbl:spamhaus", "rbl:*", "smarthost*", "s*", "*",
		"wal-spool", "outbound-dsn", "wal-*", "domain:dark.example", "domain:*",
	}
	for _, target := range good {
		p := &Plan{Rules: []Rule{{Target: target, Kind: KindTimeout}}}
		if err := p.Validate(); err != nil {
			t.Errorf("Validate rejected valid target %q: %v", target, err)
		}
	}
}
