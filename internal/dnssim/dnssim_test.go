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
	_, err := s.LookupA("missing.example")
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v, want NXDOMAIN", err)
	}
	if st := s.Stats(); st.NXDomain != 1 || st.Queries != 1 {
		t.Fatalf("stats = %+v", st)
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

func TestFailDomainInjection(t *testing.T) {
	s := NewServer()
	s.AddA("flaky.example.com", "192.0.2.9")
	s.FailDomain("flaky.example.com", ErrTimeout)
	_, err := s.LookupA("flaky.example.com")
	if !IsTemporary(err) {
		t.Fatalf("injected failure not temporary: %v", err)
	}
	if ok, err := s.ResolvableErr("flaky.example.com"); ok || !IsTemporary(err) {
		t.Fatalf("failed domain: resolvable %v, err %v; want a temporary error", ok, err)
	}
	s.FailDomain("flaky.example.com", nil)
	if _, err := s.LookupA("flaky.example.com"); err != nil {
		t.Fatalf("after clearing failure: %v", err)
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

func TestRemoveDomain(t *testing.T) {
	s := NewServer()
	s.AddA("gone.example.com", "192.0.2.3")
	s.RemoveDomain("gone.example.com")
	if _, err := s.LookupA("gone.example.com"); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("after removal err = %v, want NXDOMAIN", err)
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

func TestDomainsSorted(t *testing.T) {
	s := NewServer()
	s.AddA("zz.example.com", "192.0.2.1")
	s.AddA("aa.example.com", "192.0.2.2")
	d := s.Domains()
	if len(d) != 2 || d[0] != "aa.example.com" || d[1] != "zz.example.com" {
		t.Fatalf("Domains = %v", d)
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
