package filters

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/mail"
	"repro/internal/rbl"
	"repro/internal/resilience"
)

// flakyProber fails its next `failures` probes with err, then passes.
type flakyProber struct {
	name     string
	failures int
	err      error
	probes   int
}

func (f *flakyProber) Name() string { return f.name }
func (f *flakyProber) Check(msg *mail.Message) Result {
	r, _ := f.Probe(msg)
	return r
}
func (f *flakyProber) Probe(msg *mail.Message) (Result, error) {
	f.probes++
	if f.failures > 0 {
		f.failures--
		return Result{}, f.err
	}
	return Result{Verdict: Pass}, nil
}

// downBackend fails every query while down, as an unreachable
// blocklist does.
type downBackend struct {
	RBLBackend
	down bool
}

func (b *downBackend) Query(ip string) (bool, error) {
	if b.down {
		return false, errors.New("rbl: " + b.Name() + " query: unreachable")
	}
	return b.RBLBackend.Query(ip)
}

// downResolver times out every PTR lookup while down.
type downResolver struct {
	dnssim.Resolver
	down bool
}

func (r *downResolver) LookupPTR(ip string) (string, error) {
	if r.down {
		return "", dnssim.ErrTimeout
	}
	return r.Resolver.LookupPTR(ip)
}

func TestHardenedRetriesAbsorbTransientFaults(t *testing.T) {
	fp := &flakyProber{name: "dep", failures: 2, err: errors.New("flap")}
	h := Harden(fp, FailOpen, HardenOpts{Seed: 1})
	r, degraded := h.Run(msgFrom("192.0.2.1", "a@b.example"))
	if degraded || r.Verdict != Pass {
		t.Fatalf("2 transient failures not absorbed by 3 attempts: %+v degraded=%v", r, degraded)
	}
	if fp.probes != 3 {
		t.Fatalf("probes = %d, want 3", fp.probes)
	}
}

func TestHardenedFailOpenVsFailClosed(t *testing.T) {
	persistent := errors.New("down")
	open := Harden(&flakyProber{name: "advisory", failures: 1 << 30, err: persistent}, FailOpen, HardenOpts{Seed: 1})
	r, degraded := open.Run(msgFrom("192.0.2.1", "a@b.example"))
	if !degraded || r.Verdict != Pass {
		t.Fatalf("fail-open: %+v degraded=%v", r, degraded)
	}

	closed := Harden(&flakyProber{name: "scanner", failures: 1 << 30, err: persistent}, FailClosed, HardenOpts{Seed: 1})
	r, degraded = closed.Run(msgFrom("192.0.2.1", "a@b.example"))
	if !degraded || r.Verdict != Drop {
		t.Fatalf("fail-closed: %+v degraded=%v", r, degraded)
	}
}

func TestHardenedBreakerShortCircuits(t *testing.T) {
	clk := clock.NewSim(t0)
	fp := &flakyProber{name: "dep", failures: 1 << 30, err: errors.New("down")}
	br := resilience.NewBreaker("dep", resilience.BreakerConfig{FailureThreshold: 2, OpenTimeout: time.Minute}, clk)
	h := Harden(fp, FailOpen, HardenOpts{Breaker: br, Seed: 1})
	m := msgFrom("192.0.2.1", "a@b.example")
	h.Run(m)
	h.Run(m) // trips after 2 consecutive (post-retry) failures
	probesBefore := fp.probes
	h.Run(m) // breaker open: no probe at all
	if fp.probes != probesBefore {
		t.Fatalf("probe reached a tripped dependency (%d -> %d)", probesBefore, fp.probes)
	}
	if br.State() != resilience.Open {
		t.Fatalf("breaker state = %v", br.State())
	}
	// Recovery: dependency heals, window elapses, probe closes the breaker.
	fp.failures = 0
	clk.Advance(time.Minute)
	if r, degraded := h.Run(m); degraded || r.Verdict != Pass {
		t.Fatalf("post-recovery run: %+v degraded=%v", r, degraded)
	}
	if br.State() != resilience.Closed {
		t.Fatalf("breaker did not close after successful probe: %v", br.State())
	}
}

func TestChainRunRecordsDegradations(t *testing.T) {
	// An RBL filter whose provider is unreachable: the hardened chain
	// fails open and reports the degradation, instead of silently
	// passing (or dropping) the mail.
	clk := clock.NewSim(t0)
	provider := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clk)
	provider.AddStatic("198.51.100.66")
	backend := &downBackend{RBLBackend: provider, down: true}

	chain := NewChain(
		NewAntivirus(),
		Harden(NewRBL(backend), FailOpen, HardenOpts{Seed: 1}),
	)
	o := chain.Run(msgFrom("198.51.100.66", "a@b.example"))
	if o.Result.Verdict != Pass || o.DroppedBy != "" {
		t.Fatalf("outcome = %+v, want fail-open pass", o)
	}
	if len(o.Degraded) != 1 || o.Degraded[0].Filter != "rbl" || o.Degraded[0].Mode != FailOpen {
		t.Fatalf("degradations = %+v", o.Degraded)
	}
	// A listed IP that the outage hid: without the outage it drops.
	backend.down = false
	o = chain.Run(msgFrom("198.51.100.66", "a@b.example"))
	if o.DroppedBy != "rbl" || len(o.Degraded) != 0 {
		t.Fatalf("post-outage outcome = %+v", o)
	}
}

func TestReverseDNSProbeSeparatesChannels(t *testing.T) {
	dns := &downResolver{Resolver: dnssim.NewServer(), down: true}
	f := NewReverseDNS(dns)
	// Probe surfaces the resolver fault as an error...
	if _, err := f.Probe(msgFrom("192.0.2.10", "a@b.example")); err == nil {
		t.Fatal("Probe hid the resolver outage")
	}
	// ...while legacy Check turns it into a drop (the unhardened path).
	if r := f.Check(msgFrom("192.0.2.10", "a@b.example")); r.Verdict != Drop {
		t.Fatal("legacy Check changed behaviour")
	}
	dns.down = false
	// An authoritative no-PTR is a verdict, not an error.
	r, err := f.Probe(msgFrom("192.0.2.10", "a@b.example"))
	if err != nil || r.Verdict != Drop {
		t.Fatalf("authoritative NXDOMAIN: r=%+v err=%v", r, err)
	}
}
