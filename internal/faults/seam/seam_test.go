package seam_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/faults/seam"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/outbound"
	"repro/internal/rbl"
	"repro/internal/smtp"
	"repro/internal/wal"
)

var t0 = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

func newSet(rules ...faults.Rule) *faults.Set {
	return faults.New(&faults.Plan{Rules: rules}, 1, clock.NewSim(t0))
}

// observer records the set's consultation count at each delegation, so
// a test can tell that the target was consulted once and before the
// backend ran. The tests that use it install a rule that fires on every
// consultation without failing it (latency under the deadline), so the
// set's fired-fault counts are its consultations.
type observer struct {
	set   *faults.Set
	calls []int64
}

func (o *observer) saw() { o.calls = append(o.calls, consulted(o.set)) }

// consulted sums every fault the set fired.
func consulted(set *faults.Set) int64 {
	var n int64
	for _, c := range set.Counts() {
		n += c
	}
	return n
}

type probeResolver struct {
	dnssim.Resolver
	*observer
}

func (r probeResolver) LookupA(h string) ([]string, error) { r.saw(); return r.Resolver.LookupA(h) }
func (r probeResolver) LookupMX(d string) ([]dnssim.MX, error) {
	r.saw()
	return r.Resolver.LookupMX(d)
}
func (r probeResolver) LookupPTR(ip string) (string, error)  { r.saw(); return r.Resolver.LookupPTR(ip) }
func (r probeResolver) LookupTXT(d string) ([]string, error) { r.saw(); return r.Resolver.LookupTXT(d) }
func (r probeResolver) ResolvableErr(d string) (bool, error) {
	r.saw()
	return r.Resolver.ResolvableErr(d)
}

type probeBackend struct {
	filters.RBLBackend
	*observer
}

func (b probeBackend) Query(ip string) (bool, error) { b.saw(); return b.RBLBackend.Query(ip) }

type probeScanner struct {
	filters.Prober
	*observer
}

func (s probeScanner) Probe(m *mail.Message) (filters.Result, error) {
	s.saw()
	return s.Prober.Probe(m)
}

// checkOnceBefore asserts that each of n calls consulted the set exactly
// once, and that every delegation happened after its consultation.
func checkOnceBefore(t *testing.T, o *observer, n int) {
	t.Helper()
	if got := consulted(o.set); got != int64(n) {
		t.Fatalf("consulted %d times for %d calls", got, n)
	}
	if len(o.calls) != n {
		t.Fatalf("delegated %d of %d calls", len(o.calls), n)
	}
	for i, c := range o.calls {
		if c != int64(i+1) {
			t.Fatalf("call %d delegated at consultation %d, want %d", i, c, i+1)
		}
	}
}

func zone() *dnssim.Server {
	s := dnssim.NewServer()
	s.RegisterMailDomain("example.com", "192.0.2.10")
	s.AddTXT("example.com", "v=spf1 -all")
	return s
}

func TestNilSetReturnsInput(t *testing.T) {
	srv := zone()
	if r := seam.Resolver(srv, nil); r != dnssim.Resolver(srv) {
		t.Fatalf("Resolver(nil set) = %T, want the server", r)
	}
	prov := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clock.NewSim(t0))
	if b := seam.RBL(prov, nil); b != filters.RBLBackend(prov) {
		t.Fatalf("RBL(nil set) = %T, want the provider", b)
	}
	av := filters.NewAntivirus()
	if p := seam.Antivirus(av, nil); p != filters.Prober(av) {
		t.Fatalf("Antivirus(nil set) = %T, want the scanner", p)
	}
	var lsn uint64
	emit := func(wal.Record) uint64 { lsn++; return lsn }
	if seam.Journal(emit, nil)(wal.Record{}) != 1 {
		t.Fatal("Journal(nil set) is not the input")
	}
	if seam.Journal(nil, newSet()) != nil {
		t.Fatal("Journal(nil emit) must stay nil: no journal, no consultation")
	}
}

func TestResolverConsultsOnceBeforeEachLookup(t *testing.T) {
	set := newSet(faults.Rule{Target: "dns", Kind: faults.KindLatency, Latency: faults.Duration(time.Second)})
	o := &observer{set: set}
	r := seam.Resolver(probeResolver{zone(), o}, set)
	if ips, err := r.LookupA("example.com"); err != nil || len(ips) != 1 {
		t.Fatalf("LookupA = %v, %v", ips, err)
	}
	if mx, err := r.LookupMX("example.com"); err != nil || len(mx) != 1 {
		t.Fatalf("LookupMX = %v, %v", mx, err)
	}
	if h, err := r.LookupPTR("192.0.2.10"); err != nil || h != "mail.example.com" {
		t.Fatalf("LookupPTR = %q, %v", h, err)
	}
	if txt, err := r.LookupTXT("example.com"); err != nil || len(txt) != 1 {
		t.Fatalf("LookupTXT = %v, %v", txt, err)
	}
	if ok, err := r.ResolvableErr("example.com"); !ok || err != nil {
		t.Fatalf("ResolvableErr = %v, %v", ok, err)
	}
	checkOnceBefore(t, o, 5)
	if got := set.Counts()["dns/latency"]; got != 5 {
		t.Fatalf("dns/latency fired %d times, want 5", got)
	}
}

func TestResolverFaultsAreTemporary(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule faults.Rule
		is   error
		text string
	}{
		{"timeout", faults.Rule{Target: "dns", Kind: faults.KindTimeout}, dnssim.ErrTimeout,
			"dnssim: query timed out: faults: injected timeout"},
		{"outage", faults.Rule{Target: "dns", Kind: faults.KindOutage}, dnssim.ErrUnreachable,
			"dnssim: nameserver unreachable: faults: injected outage"},
		{"latency at the deadline", faults.Rule{Target: "dns", Kind: faults.KindLatency,
			Latency: faults.Duration(dnssim.DefaultQueryTimeout)}, dnssim.ErrTimeout,
			"dnssim: query timed out: faults: injected timeout"},
		{"error", faults.Rule{Target: "dns", Kind: faults.KindError}, dnssim.ErrTimeout,
			"dnssim: query timed out: faults: injected error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := newSet(tc.rule)
			o := &observer{set: set}
			r := seam.Resolver(probeResolver{zone(), o}, set)
			ok, err := r.ResolvableErr("example.com")
			if ok || !errors.Is(err, tc.is) || !dnssim.IsTemporary(err) {
				t.Fatalf("ResolvableErr = %v, %v; want a temporary %v", ok, err, tc.is)
			}
			if err.Error() != tc.text {
				t.Fatalf("error text %q, want %q", err, tc.text)
			}
			if _, err := r.LookupPTR("192.0.2.10"); !dnssim.IsTemporary(err) {
				t.Fatalf("LookupPTR = %v, want temporary", err)
			}
			if len(o.calls) != 0 {
				t.Fatal("a failed lookup still reached the backend")
			}
		})
	}
	// Just under the deadline the answer is late but arrives.
	set := newSet(faults.Rule{Target: "dns", Kind: faults.KindLatency,
		Latency: faults.Duration(dnssim.DefaultQueryTimeout - time.Nanosecond)})
	if ok, err := seam.Resolver(zone(), set).ResolvableErr("example.com"); !ok || err != nil {
		t.Fatalf("under-deadline latency = %v, %v", ok, err)
	}
}

func TestRBLConsultsOnceBeforeEachQuery(t *testing.T) {
	clk := clock.NewSim(t0)
	prov := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clk)
	prov.AddStatic("198.51.100.66")
	// Latency just under rbl.DefaultQueryTimeout, which is shorter than
	// the resolver's: the answer is late but arrives.
	set := faults.New(&faults.Plan{Rules: []faults.Rule{{Target: "rbl:spamhaus", Kind: faults.KindLatency,
		Latency: faults.Duration(rbl.DefaultQueryTimeout - time.Nanosecond)}}}, 1, clk)
	o := &observer{set: set}
	b := seam.RBL(probeBackend{prov, o}, set)
	if b.Name() != "spamhaus" {
		t.Fatalf("Name = %q", b.Name())
	}
	for _, ip := range []string{"198.51.100.66", "192.0.2.1"} {
		listed, err := b.Query(ip)
		if err != nil || listed != (ip == "198.51.100.66") {
			t.Fatalf("Query(%s) = %v, %v", ip, listed, err)
		}
	}
	checkOnceBefore(t, o, 2)
}

func TestRBLFaults(t *testing.T) {
	clk := clock.NewSim(t0)
	prov := rbl.NewProvider("spamhaus", rbl.DefaultPolicy(), clk)
	prov.AddStatic("198.51.100.66")
	for _, tc := range []struct {
		name string
		rule faults.Rule
		is   error
	}{
		{"outage", faults.Rule{Target: "rbl:*", Kind: faults.KindOutage}, faults.ErrOutage},
		{"latency at the deadline", faults.Rule{Target: "rbl:spamhaus", Kind: faults.KindLatency,
			Latency: faults.Duration(rbl.DefaultQueryTimeout)}, faults.ErrTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := newSet(tc.rule)
			o := &observer{set: set}
			listed, err := seam.RBL(probeBackend{prov, o}, set).Query("198.51.100.66")
			if listed || !errors.Is(err, tc.is) {
				t.Fatalf("Query = %v, %v; want %v", listed, err, tc.is)
			}
			if !strings.HasPrefix(err.Error(), "rbl: spamhaus query: ") {
				t.Fatalf("error text %q lost its provider prefix", err)
			}
			if len(o.calls) != 0 {
				t.Fatal("a failed query still reached the backend")
			}
		})
	}
	// A stale zone answers "not listed" for a listed IP, silently.
	set := newSet(faults.Rule{Target: "rbl:spamhaus", Kind: faults.KindStale})
	o := &observer{set: set}
	if listed, err := seam.RBL(probeBackend{prov, o}, set).Query("198.51.100.66"); listed || err != nil {
		t.Fatalf("stale Query = %v, %v; want false, nil", listed, err)
	}
	if len(o.calls) != 0 {
		t.Fatal("a stale answer still reached the backend")
	}
	if got := set.Counts()["rbl:spamhaus/stale"]; got != 1 {
		t.Fatalf("stale count = %d, want 1", got)
	}
	// A rule for another provider leaves this one alone.
	set = newSet(faults.Rule{Target: "rbl:cbl", Kind: faults.KindOutage})
	if listed, err := seam.RBL(prov, set).Query("198.51.100.66"); !listed || err != nil {
		t.Fatalf("unmatched Query = %v, %v", listed, err)
	}
}

func TestAntivirusConsultsOnceBeforeEachProbe(t *testing.T) {
	set := newSet(faults.Rule{Target: "av", Kind: faults.KindLatency, Latency: faults.Duration(time.Hour)})
	o := &observer{set: set}
	av := seam.Antivirus(probeScanner{filters.NewAntivirus(), o}, set)
	if av.Name() != "antivirus" {
		t.Fatalf("Name = %q", av.Name())
	}
	clean := &mail.Message{Body: "hello"}
	infected := &mail.Message{Body: "x " + filters.EICAR}
	if r, err := av.Probe(clean); err != nil || r.Verdict != filters.Pass {
		t.Fatalf("Probe(clean) = %+v, %v", r, err)
	}
	if r := av.Check(infected); r.Verdict != filters.Drop {
		t.Fatalf("Check(infected) = %+v", r)
	}
	// Latency never times out the scan: it has no deadline.
	checkOnceBefore(t, o, 2)

	set = newSet(faults.Rule{Target: "av", Kind: faults.KindError})
	o = &observer{set: set}
	av = seam.Antivirus(probeScanner{filters.NewAntivirus(), o}, set)
	_, err := av.Probe(clean)
	if !errors.Is(err, faults.ErrInjected) || err.Error() != "antivirus: scanner backend: faults: injected error" {
		t.Fatalf("Probe under a scanner fault = %v", err)
	}
	if len(o.calls) != 0 {
		t.Fatal("a failed scan still reached the scanner")
	}
	// The hardened chain turns the backend error into fail-closed.
	h := filters.Harden(av, filters.FailClosed, filters.HardenOpts{})
	if r, degraded := h.Run(clean); !degraded || r.Verdict != filters.Drop {
		t.Fatalf("hardened scan = %+v degraded=%v", r, degraded)
	}
}

func TestJournalDropsAppendFailOpen(t *testing.T) {
	var records []wal.Record
	emit := func(r wal.Record) uint64 {
		records = append(records, r)
		return uint64(len(records))
	}
	set := newSet(faults.Rule{Target: "wal-spool", Kind: faults.KindError, Probability: 0.5})
	j := seam.Journal(emit, set)
	dropped := 0
	for i := 0; i < 40; i++ {
		if j(wal.Record{}) == 0 {
			dropped++
		}
	}
	if dropped == 0 || dropped == 40 {
		t.Fatalf("dropped %d of 40", dropped)
	}
	if len(records) != 40-dropped || int64(dropped) != set.Counts()["wal-spool/error"] {
		t.Fatalf("journalled %d, dropped %d, counted %v", len(records), dropped, set.Counts())
	}

	// On the outbound queue: the transition still applies in memory and
	// the drop shows in JournalDropped.
	records = nil
	q := outbound.NewQueue(outbound.Config{
		Dial:    func() (*smtp.Client, error) { return nil, errors.New("no smarthost") },
		Journal: seam.Journal(emit, newSet(faults.Rule{Target: "wal-spool", Kind: faults.KindError})),
	})
	q.Enqueue(core.OutboundChallenge{
		MsgID: "m1",
		From:  mail.MustParseAddress("challenge@corp.example"),
		To:    mail.MustParseAddress("alice@example.com"),
		Token: "t",
	})
	if len(records) != 0 || q.JournalDropped() != 1 || q.SpoolDepth() != 1 {
		t.Fatalf("journalled %d, dropped %d, spool depth %d; want 0, 1, 1",
			len(records), q.JournalDropped(), q.SpoolDepth())
	}
}
