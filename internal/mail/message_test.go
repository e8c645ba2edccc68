package mail

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewIDUniqueSequential(t *testing.T) {
	ResetIDCounter()
	a, b := NewID("msg"), NewID("msg")
	if a == b {
		t.Fatalf("NewID returned duplicate %q", a)
	}
	if a != "msg-000001" || b != "msg-000002" {
		t.Fatalf("IDs = %q, %q; want msg-000001, msg-000002", a, b)
	}
}

func TestNewIDConcurrent(t *testing.T) {
	ResetIDCounter()
	const n = 200
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = NewID("c")
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool, n)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate concurrent ID %q", id)
		}
		seen[id] = true
	}
}

func TestMessageClone(t *testing.T) {
	m := &Message{
		ID:           "m-1",
		EnvelopeFrom: MustParseAddress("a@b.com"),
		Rcpt:         MustParseAddress("u1@corp.com"),
		Subject:      "hello",
		Size:         1234,
		Received:     time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC),
	}
	r2 := MustParseAddress("u2@corp.com")
	c := m.Clone(r2)
	if c.Rcpt != r2 {
		t.Fatalf("Clone rcpt = %v, want %v", c.Rcpt, r2)
	}
	if c.ID != m.ID || c.Subject != m.Subject || c.Size != m.Size {
		t.Fatal("Clone did not copy fields")
	}
	c.Subject = "changed"
	if m.Subject != "hello" {
		t.Fatal("Clone aliases the original")
	}
}

func TestHeadersSetReplacesCaseInsensitively(t *testing.T) {
	h := NewHeaders()
	h.Set("Subject", "challenge")
	h.Set("X-CR-Token", "tok123")
	h.Set("SUBJECT", "replaced")
	h.Set("x-cr-token", "tok456")
	// One field per name, in first-set order and capitalisation, holding
	// the last value set under any capitalisation.
	if got, want := h.Render(), "Subject: replaced\r\nX-CR-Token: tok456\r\n\r\n"; got != want {
		t.Fatalf("Render = %q, want %q", got, want)
	}
}

func TestHeadersRenderOrder(t *testing.T) {
	h := NewHeaders()
	h.Set("From", "cr@corp.com")
	h.Set("To", "alice@example.com")
	h.Set("Subject", "please confirm")
	out := h.Render()
	iFrom := strings.Index(out, "From:")
	iTo := strings.Index(out, "To:")
	iSub := strings.Index(out, "Subject:")
	if !(iFrom < iTo && iTo < iSub) {
		t.Fatalf("render order wrong:\n%s", out)
	}
	if !strings.HasSuffix(out, "\r\n\r\n") {
		t.Fatalf("render must end with blank line, got %q", out[len(out)-8:])
	}
}

func TestParseID(t *testing.T) {
	cases := []struct {
		id     string
		prefix string
		n      uint64
		ok     bool
	}{
		{"msg-000001", "msg", 1, true},
		{"company-07-000042", "company-07", 42, true},
		{"dsn-company-07-000003", "dsn-company-07", 3, true},
		{"c-999999", "c", 999999, true},
		{"c-1000000", "c", 1000000, true}, // wider than the pad
		{"c-18446744073709551615", "c", math.MaxUint64, true},
		{"-000000", "", 0, true},
		{"c-18446744073709551616", "", 0, false}, // overflows uint64
		{"c-0000001", "", 0, false},              // padded past six digits
		{"c-00001", "", 0, false},                // short of the pad
		{"c-", "", 0, false},
		{"c", "", 0, false},
		{"", "", 0, false},
		{"c-00000x", "", 0, false},
		{"c-+00001", "", 0, false},
		{"c-000001-", "", 0, false},
		{"<c-000001>", "", 0, false},
	}
	for _, c := range cases {
		prefix, n, ok := ParseID(c.id)
		if prefix != c.prefix || n != c.n || ok != c.ok {
			t.Errorf("ParseID(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.id, prefix, n, ok, c.prefix, c.n, c.ok)
		}
	}
}

func TestParseIDInvertsIDSource(t *testing.T) {
	src := NewIDSource("company-03")
	for i := uint64(1); i <= 3; i++ {
		if prefix, n, ok := ParseID(src.Next()); !ok || prefix != "company-03" || n != i {
			t.Fatalf("ID %d parsed as (%q, %d, %v)", i, prefix, n, ok)
		}
	}
}

// FuzzParseID holds ParseID to being the exact inverse of appendID: every
// rendered (prefix, n) parses back to itself, and every string ParseID
// accepts renders back to the same bytes.
func FuzzParseID(f *testing.F) {
	f.Add("company-00", uint64(1), "company-00-000001")
	f.Add("dsn-company-46", uint64(1234567), "c-1234567")
	f.Add("", uint64(0), "-000000")
	f.Add("a-b-", uint64(math.MaxUint64), "c-18446744073709551616")
	f.Add("x", uint64(7), "c-0000007")
	f.Fuzz(func(t *testing.T, prefix string, n uint64, s string) {
		id := string(appendID(nil, prefix, n))
		if p, m, ok := ParseID(id); !ok || p != prefix || m != n {
			t.Fatalf("ParseID(%q) = (%q, %d, %v), want (%q, %d, true)", id, p, m, ok, prefix, n)
		}
		if p, m, ok := ParseID(s); ok {
			if back := string(appendID(nil, p, m)); back != s {
				t.Fatalf("ParseID(%q) = (%q, %d), which renders as %q", s, p, m, back)
			}
		}
	})
}
