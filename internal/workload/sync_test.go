package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestSparseBarrierLedger pins the sparse-synchronization accounting:
// every one-hour epoch is either fired or skipped, a stock run skips a
// meaningful fraction (that is the point of the ledger), and the shared
// clock is parked on the last fired barrier — the end of the run.
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
	if got, want := f.Clk.Now(), f.Start.Add(time.Duration(days)*24*time.Hour); !got.Equal(want) {
		t.Fatalf("shared clock = %v, want the last barrier %v", got, want)
	}
}

// TestFleetZoneStaticDuringRun pins the premise that lets the fleet
// read its in-memory zone without a resolver cache or a lock: no DNS
// record changes once NewFleet returns. NewFleet freezes the zone, so a
// mutation mid-run panics; a change that needs one must unfreeze it and
// put coherence back in front of every lane's lookups.
func TestFleetZoneStaticDuringRun(t *testing.T) {
	f := NewFleet(smallConfig(5))
	before := f.DNS.Gen()
	f.Run(3)
	if after := f.DNS.Gen(); after != before {
		t.Fatalf("DNS generation moved during Run: %d -> %d", before, after)
	}
}

// TestBuildWorkerInvariance pins the parallel build: companies of
// different sizes (so the largest-first claim order is not profile
// order) built on 1 and 4 workers come out identical — every lane's
// profile, users, activity, seeded lists, rejected sender and covering
// campaigns, every whitelist, and the DNS zone.
func TestBuildWorkerInvariance(t *testing.T) {
	build := func(workers int) *Fleet {
		cfg := smallConfig(11)
		cfg.Profiles = DefaultConfig(11, 9).Profiles
		for i := range cfg.Profiles {
			cfg.Profiles[i].Users = 40 + (i*37)%60
			cfg.Profiles[i].SeedWhitelist = 10 + 3*(i%7)
		}
		cfg.UseReputation = true
		cfg.UseGreylisting = true
		cfg.Workers = workers
		return NewFleet(cfg)
	}
	serial, parallel := build(1), build(4)
	for _, c := range []struct {
		name   string
		s1, s4 any
	}{
		{"DNS answers", zoneAnswers(serial), zoneAnswers(parallel)},
		{"DNS gen", serial.DNS.Gen(), parallel.DNS.Gen()},
		{"outIPs", serial.outIPs, parallel.outIPs},
	} {
		if !reflect.DeepEqual(c.s1, c.s4) {
			t.Errorf("%s differs between 1 and 4 build workers", c.name)
		}
	}
	if len(serial.Companies) != len(parallel.Companies) || len(serial.lanes) != len(parallel.lanes) {
		t.Fatalf("companies %d/%d, lanes %d/%d", len(serial.Companies), len(parallel.Companies),
			len(serial.lanes), len(parallel.lanes))
	}
	for i, c := range serial.Companies {
		p := parallel.Companies[i]
		if c.Name != p.Name || c.ChallengeIP != p.ChallengeIP || c.MailIP != p.MailIP {
			t.Errorf("company %d: %s %s %s vs %s %s %s", i, c.Name, c.ChallengeIP, c.MailIP,
				p.Name, p.ChallengeIP, p.MailIP)
		}
		if !reflect.DeepEqual(c.Engine.Whitelists().Export(), p.Engine.Whitelists().Export()) {
			t.Errorf("%s: whitelist export differs", c.Name)
		}
		if (serial.Reputation(c.Name) == nil) != (parallel.Reputation(c.Name) == nil) ||
			(serial.lane(c.Name).gl == nil) != (parallel.lane(c.Name).gl == nil) {
			t.Errorf("%s: reputation or greylist store missing on one side", c.Name)
		}
	}
	campaignIDs := func(cs []*Campaign) []int {
		ids := make([]int, len(cs))
		for i, c := range cs {
			ids[i] = c.ID
		}
		return ids
	}
	covered, seeded := 0, 0
	for i, ln := range serial.lanes {
		pl := parallel.lanes[i]
		if ln.comp.Name != pl.comp.Name || ln.idx != pl.idx {
			t.Fatalf("lane %d: %s/%d vs %s/%d", i, ln.comp.Name, ln.idx, pl.comp.Name, pl.idx)
		}
		for _, c := range []struct {
			name   string
			s1, s4 any
		}{
			{"profile", ln.profile, pl.profile},
			{"users", ln.users, pl.users},
			{"activity", ln.activity, pl.activity},
			{"seededWL", ln.seededWL, pl.seededWL},
			{"seededBL", ln.seededBL, pl.seededBL},
			{"banned", ln.banned, pl.banned},
		} {
			if !reflect.DeepEqual(c.s1, c.s4) {
				t.Errorf("%s: lane %s differs between 1 and 4 build workers", ln.comp.Name, c.name)
			}
		}
		if a, b := campaignIDs(ln.covering), campaignIDs(pl.covering); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: covering %v vs %v", ln.comp.Name, a, b)
		}
		covered += len(ln.covering)
		for _, seeds := range ln.seededWL {
			seeded += len(seeds)
		}
	}
	if len(serial.lanes) != 9 || seeded == 0 || covered == 0 {
		t.Fatalf("build produced %d companies, %d seeded contacts, %d coverings",
			len(serial.lanes), seeded, covered)
	}
}

// zoneAnswers asks the fleet's zone about every domain the build
// registers: each company's, every legitimate correspondent's, the
// unreachable and unresolvable ones, and every mail IP's PTR.
func zoneAnswers(f *Fleet) []string {
	var out []string
	add := func(v any, err error) { out = append(out, fmt.Sprint(v, err)) }
	var domains []string
	for _, ln := range f.lanes {
		domains = append(domains, ln.profile.Domain)
	}
	for _, a := range f.legitPool {
		domains = append(domains, a.Domain)
	}
	domains = append(domains, f.unreachable...)
	domains = append(domains, f.unresolvable...)
	for _, d := range domains {
		add(f.DNS.ResolvableErr(d))
		add(f.DNS.LookupA(d))
		add(f.DNS.LookupMX(d))
		add(f.DNS.LookupA("mail." + d))
		add(f.DNS.LookupTXT(d))
	}
	for _, c := range f.Companies {
		add(f.DNS.LookupPTR(c.MailIP))
		add(f.DNS.LookupPTR(c.ChallengeIP))
	}
	return out
}
