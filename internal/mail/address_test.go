package mail

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAddressValid(t *testing.T) {
	cases := []struct {
		in            string
		local, domain string
	}{
		{"alice@example.com", "alice", "example.com"},
		{"<alice@example.com>", "alice", "example.com"},
		{"Bob.Smith@Example.COM", "Bob.Smith", "example.com"},
		{"user+tag@mail.example.org", "user+tag", "mail.example.org"},
		{"dept-x.p@scn-1.com", "dept-x.p", "scn-1.com"},
		{"o'brien@irish.ie", "o'brien", "irish.ie"},
		{"x@a.b", "x", "a.b"},
		{"  spaced@example.com  ", "spaced", "example.com"},
		{"num3r1c@123.example.com", "num3r1c", "123.example.com"},
		{"a!#$%&'*+-/=?^_`{|}~z@odd.example.com", "a!#$%&'*+-/=?^_`{|}~z", "odd.example.com"},
	}
	for _, c := range cases {
		got, err := ParseAddress(c.in)
		if err != nil {
			t.Errorf("ParseAddress(%q) error: %v", c.in, err)
			continue
		}
		if got.Local != c.local || got.Domain != c.domain {
			t.Errorf("ParseAddress(%q) = %v@%v, want %v@%v", c.in, got.Local, got.Domain, c.local, c.domain)
		}
	}
}

func TestParseAddressNullPath(t *testing.T) {
	got, err := ParseAddress("<>")
	if err != nil {
		t.Fatalf("ParseAddress(<>) error: %v", err)
	}
	if !got.IsNull() {
		t.Fatalf("ParseAddress(<>) = %v, want null", got)
	}
	if got.String() != "<>" {
		t.Fatalf("null String() = %q", got.String())
	}
}

func TestParseAddressInvalid(t *testing.T) {
	cases := []struct {
		in      string
		wantErr error
	}{
		{"", ErrEmptyAddress},
		{"   ", ErrEmptyAddress},
		{"no-at-sign", ErrMalformed},
		{"@example.com", ErrMalformed},
		{"user@", ErrMalformed},
		{"user@@example.com", ErrBadLocalPart}, // last @ splits; local "user@" invalid
		{".leadingdot@example.com", ErrBadLocalPart},
		{"trailingdot.@example.com", ErrBadLocalPart},
		{"double..dot@example.com", ErrBadLocalPart},
		{"spa ce@example.com", ErrBadLocalPart},
		{"user@nodots", ErrBadDomain},
		{"user@-bad.example.com", ErrBadDomain},
		{"user@bad-.example.com", ErrBadDomain},
		{"user@under_score.com", ErrBadDomain},
		{"user@ex ample.com", ErrBadDomain},
		{"user@.example.com", ErrBadDomain},
		{"user@example.com.", ErrBadDomain},
		{strings.Repeat("a", 65) + "@example.com", ErrBadLocalPart},
		{"user@" + strings.Repeat("a", 64) + ".com", ErrBadDomain},
	}
	for _, c := range cases {
		_, err := ParseAddress(c.in)
		if err == nil {
			t.Errorf("ParseAddress(%q) succeeded, want error %v", c.in, c.wantErr)
			continue
		}
		if !errors.Is(err, c.wantErr) {
			t.Errorf("ParseAddress(%q) error = %v, want %v", c.in, err, c.wantErr)
		}
	}
}

func TestAddressKeyCaseFolding(t *testing.T) {
	a := MustParseAddress("Alice@Example.COM")
	b := MustParseAddress("alice@example.com")
	if a.Key() != b.Key() {
		t.Fatalf("Key mismatch: %q vs %q", a.Key(), b.Key())
	}
	// String preserves local-part case.
	if a.String() != "Alice@example.com" {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestMustParseAddressPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseAddress did not panic on bad input")
		}
	}()
	MustParseAddress("not an address")
}

func TestCheckDomain(t *testing.T) {
	for _, ok := range []string{"example.com", "a.b.c.d.example.org", "x-y.example.com", "123.45.example.net"} {
		if err := CheckDomain(ok); err != nil {
			t.Errorf("CheckDomain(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "nodots", ".x.com", "x..com", "-a.com", "a-.com", "a_b.com", strings.Repeat("a.", 200) + "com"} {
		if err := CheckDomain(bad); err == nil {
			t.Errorf("CheckDomain(%q) = nil, want error", bad)
		}
	}
}

func TestLocalSimilarity(t *testing.T) {
	a := MustParseAddress("dept-x.p@scn-1.com")
	b := MustParseAddress("dept-x.q@scn-1.com")
	if s := LocalSimilarity(a, b); s < 0.8 {
		t.Fatalf("newsletter-style similarity = %v, want >= 0.8", s)
	}
	c := MustParseAddress("jk3m9q@random1.net")
	d := MustParseAddress("zzyyxx42@other.org")
	if s := LocalSimilarity(c, d); s > 0.5 {
		t.Fatalf("botnet-style similarity = %v, want <= 0.5", s)
	}
	if s := LocalSimilarity(a, a); s != 1 {
		t.Fatalf("self similarity = %v, want 1", s)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.d {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
}

// Property: any address assembled from valid atoms round-trips through
// ParseAddress with the domain lower-cased.
func TestParseAddressRoundTripProperty(t *testing.T) {
	const atom = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	gen := func(r *rand.Rand) string {
		n := 1 + r.Intn(10)
		b := make([]byte, n)
		for i := range b {
			b[i] = atom[r.Intn(len(atom))]
		}
		return string(b)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		local := gen(r)
		domain := strings.ToLower(gen(r) + "." + gen(r))
		a, err := ParseAddress(local + "@" + domain)
		return err == nil && a.Local == local && a.Domain == domain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: levenshtein is symmetric and zero iff equal.
func TestLevenshteinProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 50 {
			a = a[:50]
		}
		if len(b) > 50 {
			b = b[:50]
		}
		d1, d2 := levenshtein(a, b), levenshtein(b, a)
		if d1 != d2 {
			return false
		}
		if (d1 == 0) != (a == b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: LocalSimilarity stays within [0,1].
func TestLocalSimilarityRangeProperty(t *testing.T) {
	f := func(l1, l2 string) bool {
		a := Address{Local: l1, Domain: "x.com"}
		b := Address{Local: l2, Domain: "y.com"}
		s := LocalSimilarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseAddress(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseAddress("some.user+tag@mail.example.com"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalSimilarity(b *testing.B) {
	x := MustParseAddress("dept-x.paul@scn-1.com")
	y := MustParseAddress("dept-x.quentin@scn-2.com")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LocalSimilarity(x, y)
	}
}

// compareKeysCases are address pairs whose keys share prefixes, differ
// only in case, or put '.' or '-' where the other key has '@'.
var compareKeysCases = []Address{
	{Local: "a", Domain: "x.example"},
	{Local: "a.b", Domain: "x.example"},
	{Local: "ab", Domain: "x.example"},
	{Local: "A", Domain: "x.example"},
	{Local: "A.B", Domain: "x.example"},
	{Local: "aB", Domain: "x.example"},
	{Local: "a-", Domain: "x.example"},
	{Local: "a", Domain: "x"},
	{Local: "a", Domain: "x.exampl"},
	{Local: "a", Domain: "x-y.example"},
	{Local: "Zed", Domain: "x.example"},
	{Local: "zed", Domain: "x.example"},
	{Local: "a@b", Domain: "x"},
	{Local: "Ünï", Domain: "x.example"},
	{Local: "ünï", Domain: "x.example"},
	{Local: "", Domain: "x.example"},
	Null,
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

func TestCompareKeysMatchesKeyOrder(t *testing.T) {
	for _, a := range compareKeysCases {
		for _, b := range compareKeysCases {
			if got, want := CompareKeys(a, b), strings.Compare(a.Key(), b.Key()); got != want {
				t.Errorf("CompareKeys(%q, %q) = %d, Key() order says %d", a, b, got, want)
			}
		}
	}
	// The case the tuple order gets wrong: '.' sorts before '@'.
	if CompareKeys(Address{Local: "a.b", Domain: "x"}, Address{Local: "a", Domain: "x"}) >= 0 {
		t.Error(`"a.b@x" must sort before "a@x"`)
	}
}

// FuzzCompareKeys holds CompareKeys to the order of the keys it avoids
// building, for any local parts and domains.
func FuzzCompareKeys(f *testing.F) {
	for i, a := range compareKeysCases {
		b := compareKeysCases[(i+1)%len(compareKeysCases)]
		f.Add(a.Local, a.Domain, b.Local, b.Domain)
	}
	f.Fuzz(func(t *testing.T, l1, d1, l2, d2 string) {
		a, b := Address{Local: l1, Domain: d1}, Address{Local: l2, Domain: d2}
		if got, want := CompareKeys(a, b), sign(strings.Compare(a.Key(), b.Key())); got != want {
			t.Fatalf("CompareKeys(%q, %q) = %d, Key() order says %d", a, b, got, want)
		}
	})
}

func TestCompareKeysAllocatesNothingForASCII(t *testing.T) {
	a, b := Address{Local: "Alice.Smith", Domain: "x.example"}, Address{Local: "alice", Domain: "x.example"}
	if n := testing.AllocsPerRun(100, func() { CompareKeys(a, b) }); n != 0 {
		t.Fatalf("CompareKeys allocated %v times", n)
	}
}

func TestCheckDomainAllocatesNothing(t *testing.T) {
	for _, d := range []string{"mail.example.com", "a.b.c.d.e.example", "nodot", "bad..example"} {
		if allocs := testing.AllocsPerRun(100, func() { _ = CheckDomain(d) }); allocs != 0 {
			t.Errorf("CheckDomain(%q) allocates %v times", d, allocs)
		}
	}
}
