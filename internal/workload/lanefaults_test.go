package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mail"
	"repro/internal/maillog"
)

// dnsOutage is a plan whose one rule fails every dns lookup in the
// simulation-hour window [from, until) (until 0: forever).
func dnsOutage(from, until float64) *faults.Plan {
	return &faults.Plan{Name: "dns-outage", Rules: []faults.Rule{
		{Target: "dns", Kind: faults.KindOutage, FromHour: from, UntilHour: until},
	}}
}

// TestGeneratorIgnoresFaultPlan: the traffic a lane generates is the
// same with and without a dns outage. The generator reads the zone
// itself; only the product's resolver sits behind the lane's "dns"
// seam.
func TestGeneratorIgnoresFaultPlan(t *testing.T) {
	generate := func(plan *faults.Plan) []string {
		cfg := smallConfig(71)
		cfg.FaultPlan = plan
		f := NewFleet(cfg)
		ln := f.lanes[0]
		if _, err := ln.resolve.LookupA("mail." + f.legitPool[0].Domain); (err != nil) != (plan != nil) {
			t.Fatalf("plan %v: lane resolver error = %v", plan != nil, err)
		}
		out := make([]string, 2000)
		for i := range out {
			class := drawClass(ln.rng, ln.profile.Mix)
			m := f.buildMessage(ln, class)
			out[i] = fmt.Sprint(m.ID, class, m.EnvelopeFrom, m.ClientIP)
		}
		return out
	}
	clean, faulted := generate(nil), generate(dnsOutage(0, 0))
	for i := range clean {
		if clean[i] != faulted[i] {
			t.Fatalf("message %d differs under a dns outage:\nclean   %s\nfaulted %s", i, clean[i], faulted[i])
		}
	}
}

// TestFaultWindowInLaneTime: a one-hour dns rule fires in every window
// that has traffic, and only on messages received inside the window by
// the lane's own clock. Each lane's injector reads its window against
// the lane clock, not the shared clock that moves only at fired
// barriers.
func TestFaultWindowInLaneTime(t *testing.T) {
	for _, h := range []int{1, 2, 5, 8, 13, 26} {
		cfg := smallConfig(72)
		cfg.FaultPlan = dnsOutage(float64(h), float64(h+1))
		from := FleetStart.Add(time.Duration(h) * time.Hour)
		until := from.Add(time.Hour)
		degraded := make(map[string]int) // company -> MTA-IN resolves failed
		var outside []maillog.Event
		cfg.LogSink = func(ev maillog.Event) {
			if ev.Kind != maillog.KindDegraded || ev.Field("component") != "dns-resolve" {
				return
			}
			degraded[ev.Company]++
			if ev.Time.Before(from) || !ev.Time.Before(until) {
				outside = append(outside, ev)
			}
		}
		mail.ResetIDCounter()
		f := NewFleet(cfg)
		f.Run(2)
		if n := f.FaultCounts()["dns/outage"]; n == 0 {
			t.Errorf("window [%d,%d): the rule never fired", h, h+1)
		}
		for _, c := range f.Companies {
			if degraded[c.Name] == 0 {
				t.Errorf("window [%d,%d): %s saw no failed resolve", h, h+1, c.Name)
			}
		}
		for _, ev := range outside {
			t.Errorf("window [%d,%d): %s %s failed to resolve at %v, outside the window",
				h, h+1, ev.Company, ev.MsgID, ev.Time)
		}
	}
}
