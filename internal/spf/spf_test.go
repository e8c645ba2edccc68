package spf

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dnssim"
)

func newEnv() (*dnssim.Server, *Checker) {
	dns := dnssim.NewServer()
	return dns, New(dns)
}

// flakyZone answers from the zone, except that every lookup of the
// domain in down times out, as a nameserver that stopped answering.
type flakyZone struct {
	*dnssim.Server
	down string
}

func (z flakyZone) LookupA(host string) ([]string, error) {
	if host == z.down {
		return nil, dnssim.ErrTimeout
	}
	return z.Server.LookupA(host)
}

func (z flakyZone) LookupTXT(domain string) ([]string, error) {
	if domain == z.down {
		return nil, dnssim.ErrTimeout
	}
	return z.Server.LookupTXT(domain)
}

func TestNoPolicy(t *testing.T) {
	dns, c := newEnv()
	dns.AddA("nopolicy.example", "192.0.2.1")
	if r := c.Check("192.0.2.1", "nopolicy.example"); r != None {
		t.Fatalf("no TXT: %v, want None", r)
	}
	if r := c.Check("192.0.2.1", "nxdomain.example"); r != None {
		t.Fatalf("NXDOMAIN: %v, want None", r)
	}
}

func TestNonSPFTXTIgnored(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "google-site-verification=abc")
	if r := c.Check("192.0.2.1", "example.com"); r != None {
		t.Fatalf("non-SPF TXT: %v, want None", r)
	}
}

func TestIP4Mechanism(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 ip4:192.0.2.0/24 -all")
	if r := c.Check("192.0.2.55", "example.com"); r != Pass {
		t.Fatalf("in-range: %v, want Pass", r)
	}
	if r := c.Check("198.51.100.1", "example.com"); r != Fail {
		t.Fatalf("out-of-range: %v, want Fail", r)
	}
}

func TestIP4SingleHost(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 ip4:192.0.2.7 -all")
	if r := c.Check("192.0.2.7", "example.com"); r != Pass {
		t.Fatalf("exact IP: %v, want Pass", r)
	}
	if r := c.Check("192.0.2.8", "example.com"); r != Fail {
		t.Fatalf("other IP: %v, want Fail", r)
	}
}

func TestAMechanism(t *testing.T) {
	dns, c := newEnv()
	dns.AddA("example.com", "192.0.2.10")
	dns.AddTXT("example.com", "v=spf1 a -all")
	if r := c.Check("192.0.2.10", "example.com"); r != Pass {
		t.Fatalf("a match: %v, want Pass", r)
	}
	if r := c.Check("192.0.2.11", "example.com"); r != Fail {
		t.Fatalf("a miss: %v, want Fail", r)
	}
}

func TestAMechanismWithDomainAndCIDR(t *testing.T) {
	dns, c := newEnv()
	dns.AddA("senders.example.net", "203.0.113.0")
	dns.AddTXT("example.com", "v=spf1 a:senders.example.net/24 -all")
	if r := c.Check("203.0.113.99", "example.com"); r != Pass {
		t.Fatalf("a:domain/cidr: %v, want Pass", r)
	}
}

func TestMXMechanism(t *testing.T) {
	dns, c := newEnv()
	dns.AddMX("example.com", "mail.example.com", 10)
	dns.AddA("mail.example.com", "192.0.2.25")
	dns.AddTXT("example.com", "v=spf1 mx -all")
	if r := c.Check("192.0.2.25", "example.com"); r != Pass {
		t.Fatalf("mx match: %v, want Pass", r)
	}
	if r := c.Check("192.0.2.26", "example.com"); r != Fail {
		t.Fatalf("mx miss: %v, want Fail", r)
	}
}

func TestInclude(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("spf.mailprovider.example", "v=spf1 ip4:198.51.100.0/24 -all")
	dns.AddTXT("example.com", "v=spf1 include:spf.mailprovider.example -all")
	if r := c.Check("198.51.100.9", "example.com"); r != Pass {
		t.Fatalf("include pass: %v, want Pass", r)
	}
	// include that fails does NOT cause Fail — it just doesn't match.
	if r := c.Check("192.0.2.1", "example.com"); r != Fail {
		t.Fatalf("include miss then -all: %v, want Fail", r)
	}
}

func TestIncludeWithoutPolicyIsPermError(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 include:ghost.example -all")
	if r := c.Check("192.0.2.1", "example.com"); r != PermError {
		t.Fatalf("include of policy-less domain: %v, want PermError", r)
	}
}

func TestQualifiers(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("soft.example", "v=spf1 ~all")
	dns.AddTXT("neutral.example", "v=spf1 ?all")
	dns.AddTXT("plus.example", "v=spf1 +ip4:10.0.0.1 -all")
	if r := c.Check("192.0.2.1", "soft.example"); r != SoftFail {
		t.Fatalf("~all: %v, want SoftFail", r)
	}
	if r := c.Check("192.0.2.1", "neutral.example"); r != Neutral {
		t.Fatalf("?all: %v, want Neutral", r)
	}
	if r := c.Check("10.0.0.1", "plus.example"); r != Pass {
		t.Fatalf("+ip4: %v, want Pass", r)
	}
}

func TestNoMatchNoAllIsNeutral(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 ip4:10.0.0.0/8")
	if r := c.Check("192.0.2.1", "example.com"); r != Neutral {
		t.Fatalf("fall-off-end: %v, want Neutral", r)
	}
}

func TestRedirect(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("alias.example", "v=spf1 redirect=real.example")
	dns.AddTXT("real.example", "v=spf1 ip4:192.0.2.0/24 -all")
	if r := c.Check("192.0.2.3", "alias.example"); r != Pass {
		t.Fatalf("redirect pass: %v, want Pass", r)
	}
	if r := c.Check("10.0.0.1", "alias.example"); r != Fail {
		t.Fatalf("redirect fail: %v, want Fail", r)
	}
	// Redirect to a domain without a policy is PermError.
	dns.AddTXT("badalias.example", "v=spf1 redirect=ghost.example")
	if r := c.Check("10.0.0.1", "badalias.example"); r != PermError {
		t.Fatalf("redirect to no-policy: %v, want PermError", r)
	}
}

func TestTempError(t *testing.T) {
	dns := dnssim.NewServer()
	dns.AddTXT("example.com", "v=spf1 -all")
	c := New(flakyZone{dns, "example.com"})
	if r := c.Check("192.0.2.1", "example.com"); r != TempError {
		t.Fatalf("timeout: %v, want TempError", r)
	}
}

func TestTempErrorInsideMechanism(t *testing.T) {
	dns := dnssim.NewServer()
	dns.AddTXT("example.com", "v=spf1 a:flaky.example -all")
	dns.AddA("flaky.example", "192.0.2.1")
	c := New(flakyZone{dns, "flaky.example"})
	if r := c.Check("192.0.2.1", "example.com"); r != TempError {
		t.Fatalf("timeout in mechanism: %v, want TempError", r)
	}
}

func TestMultipleSPFRecordsIsPermError(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 -all")
	dns.AddTXT("example.com", "v=spf1 +all")
	if r := c.Check("192.0.2.1", "example.com"); r != PermError {
		t.Fatalf("duplicate records: %v, want PermError", r)
	}
}

func TestUnsupportedMechanismIsPermError(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 ptr -all")
	if r := c.Check("192.0.2.1", "example.com"); r != PermError {
		t.Fatalf("ptr mechanism: %v, want PermError", r)
	}
	dns.AddTXT("other.example", "v=spf1 frobnicate:x -all")
	if r := c.Check("192.0.2.1", "other.example"); r != PermError {
		t.Fatalf("unknown mechanism: %v, want PermError", r)
	}
}

func TestIncludeLoopHitsLimit(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("a.example", "v=spf1 include:b.example -all")
	dns.AddTXT("b.example", "v=spf1 include:a.example -all")
	if r := c.Check("192.0.2.1", "a.example"); r != PermError {
		t.Fatalf("include loop: %v, want PermError", r)
	}
}

func TestExpModifierIgnored(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 ip4:192.0.2.1 exp=why.example -all")
	if r := c.Check("192.0.2.1", "example.com"); r != Pass {
		t.Fatalf("with exp: %v, want Pass", r)
	}
}

func TestParseIPv4(t *testing.T) {
	good := map[string]uint32{
		"0.0.0.0":         0,
		"255.255.255.255": 0xFFFFFFFF,
		"192.0.2.1":       0xC0000201,
		"10.0.0.1":        0x0A000001,
	}
	for s, want := range good {
		got, err := parseIPv4(s)
		if err != nil || got != want {
			t.Errorf("parseIPv4(%q) = %x, %v; want %x", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "1.2.3.4."} {
		if _, err := parseIPv4(bad); err == nil {
			t.Errorf("parseIPv4(%q) succeeded, want error", bad)
		}
	}
}

func TestIP4MatchCIDRBoundaries(t *testing.T) {
	cases := []struct {
		ip, net string
		cidr    int
		want    bool
	}{
		{"192.0.2.255", "192.0.2.0", 24, true},
		{"192.0.3.0", "192.0.2.0", 24, false},
		{"10.200.1.1", "10.0.0.0", 8, true},
		{"11.0.0.0", "10.0.0.0", 8, false},
		{"1.2.3.4", "9.9.9.9", 0, true}, // /0 matches everything
		{"1.2.3.4", "1.2.3.4", -1, true},
		{"1.2.3.5", "1.2.3.4", -1, false},
	}
	for _, c := range cases {
		got, err := ip4Match(c.ip, c.net, c.cidr)
		if err != nil || got != c.want {
			t.Errorf("ip4Match(%s, %s/%d) = %v, %v; want %v", c.ip, c.net, c.cidr, got, err, c.want)
		}
	}
	if _, err := ip4Match("1.2.3.4", "1.2.3.0", 33); err == nil {
		t.Error("cidr /33 accepted")
	}
}

func TestResultString(t *testing.T) {
	for r, s := range map[Result]string{
		None: "None", Neutral: "Neutral", Pass: "Pass", Fail: "Fail",
		SoftFail: "SoftFail", TempError: "TempError", PermError: "PermError",
	} {
		if r.String() != s {
			t.Errorf("Result(%d).String() = %q, want %q", int(r), r.String(), s)
		}
	}
	if got := Result(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown Result String = %q", got)
	}
}

// Property: evaluation is deterministic and always yields a defined result.
func TestCheckDeterministicProperty(t *testing.T) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 ip4:192.0.2.0/24 ~all")
	f := func(a, b, cc, d uint8) bool {
		ip := itoa(a) + "." + itoa(b) + "." + itoa(cc) + "." + itoa(d)
		r1 := c.Check(ip, "example.com")
		r2 := c.Check(ip, "example.com")
		if r1 != r2 {
			return false
		}
		return r1 == Pass || r1 == SoftFail
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v uint8) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var b [3]byte
	i := 3
	for v > 0 {
		i--
		b[i] = digits[v%10]
		v /= 10
	}
	return string(b[i:])
}

func BenchmarkCheckIP4(b *testing.B) {
	dns, c := newEnv()
	dns.AddTXT("example.com", "v=spf1 ip4:192.0.2.0/24 ip4:198.51.100.0/24 -all")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Check("198.51.100.77", "example.com")
	}
}

func BenchmarkCheckInclude(b *testing.B) {
	dns, c := newEnv()
	dns.AddTXT("spf.provider.example", "v=spf1 ip4:203.0.113.0/24 -all")
	dns.AddTXT("example.com", "v=spf1 include:spf.provider.example -all")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Check("203.0.113.50", "example.com")
	}
}
