package loadgen

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := Percentile(vs, c.p); got != c.want {
			t.Errorf("Percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := Percentile(big, 99); got != 990 {
		t.Errorf("Percentile(1..1000, 99) = %v, want 990: ten samples lie beyond it", got)
	}
}

// The steadiness rule is stated with Python's statistics.quantiles; the
// expected values below are its output for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20}, 10, 30},
		{[]float64{5, 1}, 0, 6}, // two points: exclusive quartiles extrapolate
		{[]float64{12.1, 11.8, 12.5, 13.9, 12.0, 12.2, 11.9, 12.4, 12.3, 12.6}, 11.975, 12.525},
	} {
		q1, q3 := Quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("Spread(1..10) = %v, want %v", got, want)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func txString(tx *Tx) string {
	return fmt.Sprintf("%s %s %s %d", tx.Class, tx.From, tx.Rcpt, len(tx.Body))
}

func TestMixDeterministicPerSeedAndStream(t *testing.T) {
	stream := func(seed int64, n int) []string {
		m := NewMix(PaperMix, NewBodies(PaperMix, seed), seed, 3)
		out := make([]string, n)
		for i := range out {
			out[i] = txString(m.Next())
		}
		return out
	}
	a, b, c := stream(7, 500), stream(7, 500), stream(8, 500)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7, tx %d: %q then %q", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("seeds 7 and 8 agree on %d of %d transactions", same, len(a))
	}
	if !bytes.Equal(NewBodies(PaperMix, 7).clean[5], NewBodies(PaperMix, 7).clean[5]) {
		t.Error("body pool differs between two renderings of seed 7")
	}
}

func TestMixSharesAndFreshSenders(t *testing.T) {
	bodies := NewBodies(PaperMix, 1)
	seen := map[string]bool{}
	var drawn [NumClasses]int
	const n = 40000
	for stream := 1; stream <= 2; stream++ {
		m := NewMix(PaperMix, bodies, 1, stream)
		for i := 0; i < n/2; i++ {
			tx := m.Next()
			drawn[tx.Class]++
			if tx.Class == GrayClean || tx.Class == GrayVirus {
				if seen[string(tx.From)] {
					t.Fatalf("gray sender %s drawn twice", tx.From)
				}
				seen[string(tx.From)] = true
			}
			if tx.Class == GrayVirus != bytes.Contains(tx.Body, []byte("EICAR")) {
				t.Fatalf("%s transaction, EICAR in body: %v", tx.Class, bytes.Contains(tx.Body, []byte("EICAR")))
			}
			if !bytes.HasSuffix(tx.Body, []byte("\r\n.\r\n")) {
				t.Fatal("body is not dot-terminated")
			}
		}
	}
	for c, w := range PaperMix.Weights {
		want := float64(w) / 1000
		if got := float64(drawn[c]) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("%s: share %.3f, want %.3f", Class(c), got, want)
		}
	}
}

func TestBodiesDotStuffedAndSized(t *testing.T) {
	b := NewBodies(WhiteLarge, 1)
	stuffed := 0
	for _, body := range b.clean {
		if len(body) < WhiteLarge.MinBody {
			t.Errorf("body of %d bytes, want at least %d", len(body), WhiteLarge.MinBody)
		}
		for _, line := range strings.Split(string(body), "\r\n") {
			if strings.HasPrefix(line, ".") && line != "." {
				if !strings.HasPrefix(line, "..") {
					t.Fatalf("unstuffed line %q", line)
				}
				stuffed++
			}
		}
	}
	if stuffed == 0 {
		t.Error("no dot-stuffed line in the white-large pool")
	}
}

// sendTo speaks just enough SMTP to hand the sink one message.
func sendTo(t *testing.T, addr, subject string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	steps := []struct{ send, want string }{
		{"", "220"}, {"EHLO test\r\n", "250"}, {"MAIL FROM:<challenge@corp.example>\r\n", "250"},
		{"RCPT TO:<a@example.com>\r\n", "250"}, {"DATA\r\n", "354"},
		{"From: x\r\nSubject: " + subject + "\r\n\r\nbody (not an id)\r\n..stuffed\r\n.\r\n", "250"}, {"QUIT\r\n", "221"},
	}
	buf := make([]byte, 512)
	for _, s := range steps {
		if s.send != "" {
			if _, err := conn.Write([]byte(s.send)); err != nil {
				t.Fatal(err)
			}
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil || !strings.HasPrefix(string(buf[:n]), s.want) {
			t.Fatalf("after %q: got %q (%v), want %s", s.send, buf[:n], err, s.want)
		}
	}
}

func TestSinkCountsByMessageID(t *testing.T) {
	s, err := StartSink()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sendTo(t, s.Addr(), "Please confirm your message (smtp-000001)")
	sendTo(t, s.Addr(), "Please confirm your message (smtp-000002)")
	sendTo(t, s.Addr(), "Please confirm your message (smtp-000002)")
	sendTo(t, s.Addr(), "no id here")
	total, unique, unnamed := s.Counts()
	if total != 4 || unique != 2 || unnamed != 1 {
		t.Errorf("Counts() = %d messages, %d distinct ids, %d unnamed; want 4, 2, 1", total, unique, unnamed)
	}
}

// TestClientAgainstSink drives the pipelining client against the sink,
// which accepts everything: every class must come back 250.
func TestClientAgainstSink(t *testing.T) {
	s, err := StartSink()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out := Load{Addr: s.Addr(), Spec: GrayFlood, Seed: 1, Bodies: NewBodies(GrayFlood, 1), Conns: 2, Duration: 100 * time.Millisecond, ReconnectEvery: 10}.Run()
	if out.Failed > 0 || out.Tx == 0 || len(out.Samples) != out.Tx {
		t.Fatalf("%d transactions, %d failed, %d samples: %s", out.Tx, out.Failed, len(out.Samples), out.FirstErr)
	}
	if total, _, _ := s.Counts(); total != out.Tx {
		t.Errorf("sink received %d messages, client sent %d", total, out.Tx)
	}
	if out.Dials < out.Tx/10 {
		t.Errorf("%d connections for %d transactions, want one per 10", out.Dials, out.Tx)
	}
	tl := Timeline(out.Samples, 100*time.Millisecond, nil)
	if len(tl) != 1 || tl[0].Tx != out.Tx {
		t.Errorf("timeline %+v, want one second holding all %d transactions", tl, out.Tx)
	}
}
