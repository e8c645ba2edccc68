package workload

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mail"
	"repro/internal/maillog"
)

// truthFleet runs a small fleet whose every lane-minted message was
// injected by the test, so the test knows each ID's class. Profiles get
// no daily traffic: Run only moves the challenges, DSNs, digest weeding
// and outbound user mail the injected messages set off. It returns the
// fleet, the injected classes by ID, and the IDs of the DSNs the
// engines received.
func truthFleet(t *testing.T, workers int) (*Fleet, map[string]Class, []string) {
	t.Helper()
	mail.ResetIDCounter()
	cfg := smallConfig(31)
	cfg.Workers = workers
	cfg.EmitDSNs = true
	for i := range cfg.Profiles {
		cfg.Profiles[i].DailyVolume = 0
	}
	var dsns []string
	cfg.LogSink = func(ev maillog.Event) {
		if strings.HasPrefix(ev.MsgID, "dsn-") {
			dsns = append(dsns, ev.MsgID)
		}
	}
	f := NewFleet(cfg)
	rng := rand.New(rand.NewSource(5))
	injected := make(map[string]Class)
	for _, ln := range f.lanes {
		ids := mail.NewIDSource(ln.comp.Name)
		for i := 0; i < 300; i++ {
			cls := drawClass(rng, ln.profile.Mix)
			f.injectClass(ln, cls)
			injected[ids.Next()] = cls
		}
	}
	f.Run(3)
	return f, injected, dsns
}

func TestTruthTable(t *testing.T) {
	f, injected, dsns := truthFleet(t, 1)

	// Every message the measurement looks up by ID: the challenged ones
	// and the ones still pending in a digest.
	var looked []string
	for _, rec := range f.Net.Records() {
		looked = append(looked, rec.MsgID)
	}
	challenged := len(looked)
	for _, c := range f.Companies {
		for _, u := range f.Users(c.Name) {
			for _, it := range c.Engine.PendingForUser(u) {
				looked = append(looked, it.MsgID)
			}
		}
	}
	if challenged == 0 || len(looked) == challenged {
		t.Fatalf("%d challenge records and %d pending items: want both", challenged, len(looked)-challenged)
	}
	for _, id := range looked {
		want, ok := injected[id]
		if !ok {
			t.Fatalf("%s was not injected by the test", id)
		}
		if got, ok := f.Truth(id); !ok || got != want {
			t.Fatalf("Truth(%s) = (%v, %v), want (%v, true)", id, got, ok, want)
		}
	}

	// Classes that never reach the gray spool report no truth.
	var nonGray int
	for id, cls := range injected {
		got, ok := f.Truth(id)
		if cls.graySpool() {
			if !ok || got != cls {
				t.Fatalf("Truth(%s) = (%v, %v), want (%v, true)", id, got, ok, cls)
			}
			continue
		}
		nonGray++
		if ok {
			t.Fatalf("Truth(%s) = (%v, true) for a %v message", id, got, cls)
		}
	}
	if nonGray == 0 {
		t.Fatal("no non-gray message injected")
	}

	// IDs no lane minted: simnet's DSNs, other prefixes, out of range.
	if len(dsns) == 0 {
		t.Fatal("no DSN reached an engine")
	}
	unknown := append([]string{
		"company-99-000001", "nosuch-000001", "company-00", "company-00-000000",
		"company-00-999999", "company-00-0000001", "",
	}, dsns...)
	for _, id := range unknown {
		if got, ok := f.Truth(id); ok {
			t.Fatalf("Truth(%q) = (%v, true), want false", id, got)
		}
	}

	// The worker count changes no answer.
	f4, _, dsns4 := truthFleet(t, 4)
	if !reflect.DeepEqual(dsns, dsns4) {
		t.Fatal("workers 1 and 4 received different DSNs")
	}
	all := append(looked, unknown...)
	for id := range injected {
		all = append(all, id)
	}
	for _, id := range all {
		c1, ok1 := f.Truth(id)
		c4, ok4 := f4.Truth(id)
		if c1 != c4 || ok1 != ok4 {
			t.Fatalf("Truth(%s): workers 1 say (%v, %v), workers 4 say (%v, %v)", id, c1, ok1, c4, ok4)
		}
	}
}
