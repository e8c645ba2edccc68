package dnssim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestLookupA(t *testing.T) {
	s := NewServer()
	s.AddA("example.com", "192.0.2.1", "192.0.2.2")
	ips, err := s.LookupA("example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 2 || ips[0] != "192.0.2.1" {
		t.Fatalf("LookupA = %v", ips)
	}
	// Case-insensitive, trailing-dot tolerant.
	if _, err := s.LookupA("EXAMPLE.COM."); err != nil {
		t.Fatalf("case/dot lookup failed: %v", err)
	}
}

func TestLookupANXDomain(t *testing.T) {
	s := NewServer()
	s.AddA("present.example", "192.0.2.1")
	// A miss is an answer, not a change: asking again gives the same
	// NXDOMAIN, and the zone's other names still resolve.
	for i := 0; i < 2; i++ {
		_, err := s.LookupA("missing.example")
		if !errors.Is(err, ErrNXDomain) || err.Error() != "dnssim: NXDOMAIN: missing.example" {
			t.Fatalf("lookup %d: err = %v, want NXDOMAIN for missing.example", i, err)
		}
	}
	if ips, err := s.LookupA("present.example"); err != nil || len(ips) != 1 || ips[0] != "192.0.2.1" {
		t.Fatalf("present.example = %v, %v", ips, err)
	}
}

// TestNegativeAnswerTexts pins the text and the sentinel of every
// authoritative negative answer.
func TestNegativeAnswerTexts(t *testing.T) {
	s := NewServer()
	s.AddTXT("txt-only.example", "v=spf1 -all")
	s.AddA("a-only.example", "192.0.2.1")
	lookupErr := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		err  error
		want error
		text string
	}{
		{lookupErr(s.LookupA("nowhere.example")), ErrNXDomain, "dnssim: NXDOMAIN: nowhere.example"},
		{lookupErr(s.LookupMX("Nowhere.Example.")), ErrNXDomain, "dnssim: NXDOMAIN: Nowhere.Example."},
		{lookupErr(s.LookupTXT("nowhere.example")), ErrNXDomain, "dnssim: NXDOMAIN: nowhere.example"},
		{lookupErr(s.LookupPTR("192.0.2.99")), ErrNXDomain, "dnssim: NXDOMAIN: PTR 192.0.2.99"},
		{lookupErr(s.LookupA("txt-only.example")), ErrNoRecord, "dnssim: no such record: A txt-only.example"},
		{lookupErr(s.LookupMX("a-only.example")), ErrNoRecord, "dnssim: no such record: MX a-only.example"},
		{lookupErr(s.LookupTXT("a-only.example")), ErrNoRecord, "dnssim: no such record: TXT a-only.example"},
	} {
		if !errors.Is(tc.err, tc.want) || tc.err.Error() != tc.text {
			t.Errorf("err = %v, want %q wrapping %v", tc.err, tc.text, tc.want)
		}
		if IsTemporary(tc.err) {
			t.Errorf("%v reads as temporary", tc.err)
		}
	}
}

func TestLookupNoData(t *testing.T) {
	s := NewServer()
	s.AddTXT("example.com", "v=spf1 -all")
	_, err := s.LookupA("example.com")
	if !errors.Is(err, ErrNoRecord) {
		t.Fatalf("err = %v, want ErrNoRecord (domain exists, no A)", err)
	}
}

func TestLookupMXSortedByPref(t *testing.T) {
	s := NewServer()
	s.AddMX("example.com", "backup.example.com", 20)
	s.AddMX("example.com", "primary.example.com", 10)
	mx, err := s.LookupMX("example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(mx) != 2 || mx[0].Host != "primary.example.com" {
		t.Fatalf("MX order = %v", mx)
	}
}

func TestLookupPTR(t *testing.T) {
	s := NewServer()
	s.AddPTR("192.0.2.7", "mail.example.com")
	h, err := s.LookupPTR("192.0.2.7")
	if err != nil || h != "mail.example.com" {
		t.Fatalf("PTR = %q, %v", h, err)
	}
	if _, err := s.LookupPTR("192.0.2.8"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("missing PTR err = %v", err)
	}
}

func TestLookupTXT(t *testing.T) {
	s := NewServer()
	s.AddTXT("example.com", "v=spf1 ip4:192.0.2.0/24 -all")
	txt, err := s.LookupTXT("example.com")
	if err != nil || len(txt) != 1 {
		t.Fatalf("TXT = %v, %v", txt, err)
	}
}

func TestResolvable(t *testing.T) {
	s := NewServer()
	s.AddMX("mx-only.example.com", "mail.example.com", 10)
	if ok, err := s.ResolvableErr("mx-only.example.com"); !ok || err != nil {
		t.Fatalf("domain with only MX: %v, %v; must be resolvable", ok, err)
	}
	if ok, err := s.ResolvableErr("ghost.example.com"); ok || err != nil {
		t.Fatalf("unregistered domain: %v, %v; want an authoritative no", ok, err)
	}
}

func TestRegisterMailDomain(t *testing.T) {
	s := NewServer()
	s.RegisterMailDomain("corp.example", "198.51.100.1")
	if ok, _ := s.ResolvableErr("corp.example"); !ok {
		t.Fatal("registered domain not resolvable")
	}
	mx, err := s.LookupMX("corp.example")
	if err != nil || mx[0].Host != "mail.corp.example" {
		t.Fatalf("MX = %v, %v", mx, err)
	}
	ptr, err := s.LookupPTR("198.51.100.1")
	if err != nil || ptr != "mail.corp.example" {
		t.Fatalf("PTR = %q, %v", ptr, err)
	}
	ips, err := s.LookupA("mail.corp.example")
	if err != nil || ips[0] != "198.51.100.1" {
		t.Fatalf("A = %v, %v", ips, err)
	}
}

func TestLookupResultIsCopy(t *testing.T) {
	s := NewServer()
	s.AddA("example.com", "192.0.2.1")
	ips, _ := s.LookupA("example.com")
	ips[0] = "mutated"
	ips2, _ := s.LookupA("example.com")
	if ips2[0] != "192.0.2.1" {
		t.Fatal("LookupA returned aliased internal slice")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewServer()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			s.AddA(fmt.Sprintf("d%d.example.com", i), "192.0.2.1")
		}(i)
		go func(i int) {
			defer wg.Done()
			s.LookupA(fmt.Sprintf("d%d.example.com", i)) //nolint:errcheck
		}(i)
	}
	wg.Wait()
}

func TestFreezeRejectsMutations(t *testing.T) {
	s := NewServer()
	s.RegisterMailDomain("corp.example", "198.51.100.1")
	s.Freeze()
	s.Freeze() // idempotent
	gen := s.Gen()
	for name, mutate := range map[string]func(){
		"AddA":               func() { s.AddA("new.example", "192.0.2.1") },
		"AddMX":              func() { s.AddMX("corp.example", "mx2.corp.example", 20) },
		"AddPTR":             func() { s.AddPTR("192.0.2.1", "new.example") },
		"AddTXT":             func() { s.AddTXT("corp.example", "v=spf1 -all") },
		"RegisterMailDomain": func() { s.RegisterMailDomain("other.example", "198.51.100.2") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen zone did not panic", name)
				}
			}()
			mutate()
		}()
	}
	// The panics released the lock and changed nothing.
	if g := s.Gen(); g != gen {
		t.Fatalf("gen moved %d -> %d", gen, g)
	}
	if mx, err := s.LookupMX("corp.example"); err != nil || len(mx) != 1 {
		t.Fatalf("MX after rejected mutations = %v, %v", mx, err)
	}
	if _, err := s.LookupA("new.example"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("rejected AddA took effect: %v", err)
	}
}

// TestFrozenConcurrentReaders asks every kind of question of a zone
// before freezing it, then from several goroutines at once after: the
// lock-free answers must be the locked ones (run it under -race).
func TestFrozenConcurrentReaders(t *testing.T) {
	s := NewServer()
	for i := 0; i < 20; i++ {
		d := fmt.Sprintf("d%02d.example", i)
		s.RegisterMailDomain(d, fmt.Sprintf("198.51.100.%d", i+1))
		if i%3 == 0 {
			s.AddTXT(d, "v=spf1 -all")
		}
	}
	answers := func() []string {
		var out []string
		add := func(v any, err error) { out = append(out, fmt.Sprint(v, err)) }
		for i := 0; i < 22; i++ {
			d := fmt.Sprintf("d%02d.example", i)
			add(s.LookupA(d))
			add(s.LookupA("mail." + d))
			add(s.LookupMX(d))
			add(s.LookupTXT(d))
			add(s.LookupPTR(fmt.Sprintf("198.51.100.%d", i+1)))
			add(s.ResolvableErr(d))
		}
		return out
	}
	want := answers()
	s.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got := answers()
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("answer %d after Freeze = %q, want %q", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkLookupA(b *testing.B) {
	s := NewServer()
	for i := 0; i < 1000; i++ {
		s.AddA(fmt.Sprintf("d%d.example.com", i), "192.0.2.1")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LookupA("d500.example.com"); err != nil {
			b.Fatal(err)
		}
	}
}
