package logscan_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/logscan"
	"repro/internal/maillog"
)

var t0 = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

// genLog writes n synthetic decision-log events across a handful of
// companies, covering every kind the engine emits, with a seeded rng so
// the bytes are deterministic.
func genLog(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w := maillog.NewWriter(&buf)
	for i := 0; i < n; i++ {
		co := fmt.Sprintf("company-%02d", rng.Intn(7))
		id := fmt.Sprintf("%s-%06d", co, i)
		at := t0.Add(time.Duration(i) * time.Second)
		switch rng.Intn(8) {
		case 0:
			w.Write(maillog.MakeEvent(at, co, maillog.KindMTAAccept, id, "from", "a@b.example", "size", fmt.Sprint(500+rng.Intn(4000))))
		case 1:
			w.Write(maillog.MakeEvent(at, co, maillog.KindMTADrop, id, "reason", "unknown-recipient", "size", fmt.Sprint(500+rng.Intn(4000))))
		case 2:
			w.Write(maillog.MakeEvent(at, co, maillog.KindDispatch, id, "spool", []string{"white", "black", "gray"}[rng.Intn(3)]))
		case 3:
			w.Write(maillog.MakeEvent(at, co, maillog.KindFilterDrop, id, "filter", []string{"rbl", "antivirus", "reverse-dns"}[rng.Intn(3)]))
		case 4:
			w.Write(maillog.MakeEvent(at, co, maillog.KindChallenge, id, "to", "sender@remote.example"))
		case 5:
			w.Write(maillog.MakeEvent(at, co, maillog.KindDeliver, id, "via", []string{"whitelist", "challenge", "digest"}[rng.Intn(3)]))
		case 6:
			w.Write(maillog.MakeEvent(at, co, maillog.KindReputation, id, "action", "fast-path", "band", "trusted", "score", fmt.Sprintf("0.%03d", rng.Intn(1000)), "keys", "a;d;i"))
		case 7:
			w.Write(maillog.MakeEvent(at, co, maillog.KindWebSolve, id))
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseLineBytesMatchesParseLine: the zero-copy decoder and the
// serial refParseLine must agree on classification and content for
// good and bad lines alike.
func TestParseLineBytesMatchesParseLine(t *testing.T) {
	cases := []string{
		"2010-07-01T10:00:00Z corp mta-drop msg=m-1 reason=unknown-recipient size=4096",
		"2010-07-01T10:00:00Z corp web-solve",
		"2010-07-01T10:00:00Z corp deliver msg=m-9 a=1 b=2 c=3 d=4 e=5 f=6",
		"  2010-07-01T10:00:00Z   corp\tdeliver   via=digest  ",
		"2010-12-31T23:59:59Z x y",
		"",
		"too short",
		"not-a-time company kind",
		"2010-07-01T10:00:00Z c deliver brokenfield",
		"2010-02-30T10:00:00Z c deliver", // calendar-invalid date
		"2010-07-01T10:00:60Z c deliver", // out-of-range seconds
		"2010-07-01 10:00:00Z c deliver", // wrong separator
		"2010-07-01T10:00:00+01 c deliver",
	}
	d := logscan.NewDecoder()
	for _, line := range cases {
		want, werr := refParseLine(line)
		var e maillog.Event
		gerr := d.ParseLineBytes([]byte(line), &e)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%q: refParseLine err=%v, ParseLineBytes err=%v", line, werr, gerr)
			continue
		}
		if werr != nil {
			continue
		}
		if !e.Time.Equal(want.Time) || e.Company != want.Company || e.Kind != want.Kind || e.MsgID != want.MsgID {
			t.Errorf("%q: header %v vs %v", line, e, want)
		}
		if g, w := string(e.AppendFormat(nil)), string(want.AppendFormat(nil)); g != w {
			t.Errorf("%q: fields %s vs %s", line, g, w)
		}
	}
}

// TestDecoderSkipMsgID: aggregation-mode decoding drops only the
// message ID.
func TestDecoderSkipMsgID(t *testing.T) {
	d := logscan.NewDecoder()
	d.SkipMsgID = true
	var e maillog.Event
	if err := d.ParseLineBytes([]byte("2010-07-01T10:00:00Z corp dispatch msg=m-1 spool=gray"), &e); err != nil {
		t.Fatal(err)
	}
	if e.MsgID != "" {
		t.Fatalf("MsgID = %q, want empty under SkipMsgID", e.MsgID)
	}
	if e.Field("spool") != "gray" {
		t.Fatalf("fields lost: %s", e.AppendFormat(nil))
	}
}

// TestWorkerCountInvariance is the determinism proof: for 1/2/4/8
// workers, through every entry point — Scan over a bytes.Reader and over
// a Read-only wrapper that returns short reads, ScanFile on a regular
// file, the ScanReaderAt adapter — the aggregate is identical to the serial refParseAll
// baseline, bit for bit, bad lines included.
func TestWorkerCountInvariance(t *testing.T) {
	log := genLog(t, 20000, 17)
	// Salt the input with the hostile cases a crawler meets: blank
	// lines, unparsable lines, an oversized line.
	cut := bytes.IndexByte(log[len(log)/2:], '\n') + len(log)/2 + 1
	var sb bytes.Buffer
	sb.Write(log[:cut])
	sb.WriteString("\ngarbage line that fails to parse\n")
	sb.WriteString(strings.Repeat("x", logscan.MaxLineLen+10))
	sb.WriteByte('\n')
	sb.Write(log[cut:])
	input := sb.Bytes()
	path := filepath.Join(t.TempDir(), "cr.log")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}

	serial, err := refParseAll(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if serial.BadLines != 2 {
		t.Fatalf("fixture bad lines = %d, want 2", serial.BadLines)
	}

	entries := []struct {
		name string
		scan func(logscan.Options) (*maillog.Aggregate, error)
	}{
		{"Scan(bytes.Reader)", func(o logscan.Options) (*maillog.Aggregate, error) {
			return logscan.Scan(bytes.NewReader(input), o)
		}},
		{"Scan(Read-only, short reads)", func(o logscan.Options) (*maillog.Aggregate, error) {
			return logscan.Scan(iotest.HalfReader(bytes.NewReader(input)), o)
		}},
		{"ScanFile", func(o logscan.Options) (*maillog.Aggregate, error) {
			return logscan.ScanFile(path, o)
		}},
		{"ScanReaderAt", func(o logscan.Options) (*maillog.Aggregate, error) {
			return logscan.ScanReaderAt(bytes.NewReader(input), int64(len(input)), o)
		}},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, entry := range entries {
			got, err := entry.scan(logscan.Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, entry.name, err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("workers=%d %s: aggregate differs from serial refParseAll", workers, entry.name)
			}
		}
	}
}

// TestStreamBlockBoundary: the producer fills 1 MiB blocks and cuts
// each at its last newline. With 64-byte lines a full block ends
// exactly on a newline and ships whole; with 100-byte lines every block
// ends mid-line and the partial line is carried into the next. Either
// way every line must be counted exactly once, for every worker count.
func TestStreamBlockBoundary(t *testing.T) {
	const prefix = "2010-07-01T10:00:00Z corp web-solve msg="
	for _, width := range []int{64, 100} {
		n := 3<<20/width + 100 // past three blocks
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "%s%0*d\n", prefix, width-len(prefix)-1, i)
		}
		input := []byte(sb.String())
		if len(input) != n*width {
			t.Fatalf("width=%d: fixture is %d bytes, want %d", width, len(input), n*width)
		}
		for workers := 1; workers <= 8; workers++ {
			var c logscan.Counters
			agg, err := logscan.Scan(bytes.NewReader(input), logscan.Options{Workers: workers, Counter: &c})
			if err != nil {
				t.Fatal(err)
			}
			if agg.Lines != int64(n) || agg.BadLines != 0 {
				t.Fatalf("width=%d workers=%d: lines=%d bad=%d, want %d/0", width, workers, agg.Lines, agg.BadLines, n)
			}
			if got := agg.Total().WebSolves; got != int64(n) {
				t.Fatalf("width=%d workers=%d: solves=%d, want %d", width, workers, got, n)
			}
			if got := c.Bytes.Load(); got != int64(len(input)) {
				t.Fatalf("width=%d workers=%d: scanned %d bytes, want %d", width, workers, got, len(input))
			}
		}
	}
}

// TestMaxLineLenEdges: a valid line of exactly MaxLineLen bytes with its
// newline is decoded and one byte longer is one bad line, at the start of
// the input and where it straddles the producer's first block; the same
// lines without their newline, as the last line, decode alike. The scan
// must agree with the reference parser on each.
func TestMaxLineLenEdges(t *testing.T) {
	const prefix = "2010-07-01T10:00:00Z corp web-solve pad="
	// line returns a valid line of n bytes, newline included.
	line := func(n int) string { return prefix + strings.Repeat("x", n-len(prefix)-1) + "\n" }
	short := strings.Repeat(line(80), 1000)
	for _, n := range []int{logscan.MaxLineLen - 1, logscan.MaxLineLen, logscan.MaxLineLen + 1} {
		inputs := map[string]string{
			"first":        line(n) + short,
			"straddling":   short + line(n) + short,
			"unterminated": short + strings.TrimSuffix(line(n), "\n"),
		}
		for where, in := range inputs {
			want, err := refParseAll(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			wantBad := int64(0)
			if n > logscan.MaxLineLen {
				wantBad = 1
			}
			if want.BadLines != wantBad {
				t.Fatalf("n=%d %s: reference counts %d bad lines, want %d", n, where, want.BadLines, wantBad)
			}
			for _, workers := range []int{1, 3} {
				var c logscan.Counters
				got, err := logscan.Scan(iotest.HalfReader(strings.NewReader(in)), logscan.Options{Workers: workers, Counter: &c})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d %s workers=%d: lines=%d bad=%d, reference %d/%d", n, where, workers, got.Lines, got.BadLines, want.Lines, want.BadLines)
				}
				if c.Bytes.Load() != int64(len(in)) {
					t.Errorf("n=%d %s workers=%d: scanned %d bytes, want %d", n, where, workers, c.Bytes.Load(), len(in))
				}
			}
		}
	}
}

// TestScanFile: the -f path end to end, and the error for a missing
// file.
func TestScanFile(t *testing.T) {
	log := genLog(t, 5000, 3)
	path := filepath.Join(t.TempDir(), "cr.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := refParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	got, err := logscan.ScanFile(path, logscan.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ScanFile aggregate differs from serial refParseAll")
	}
	if _, err := logscan.ScanFile(filepath.Join(t.TempDir(), "missing.log"), logscan.Options{}); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestScanFileFIFO: -f on a FIFO (what `logstats -f <(zcat cr.log.gz)`
// hands it) reads every line the writer sends.
func TestScanFileFIFO(t *testing.T) {
	log := genLog(t, 5000, 3)
	path := filepath.Join(t.TempDir(), "cr.fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	written := make(chan error, 1)
	go func() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			written <- err
			return
		}
		_, err = f.Write(log)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		written <- err
	}()
	got, err := logscan.ScanFile(path, logscan.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refParseAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanFile on a FIFO: %d lines, want %d", got.Lines, want.Lines)
	}
	if err := <-written; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// TestStreamAllocs: the scan circulates its block buffers whole,
// so a log many blocks long costs a bounded number of allocations —
// the blocks, the read buffer, the shard aggregates — not one per line.
// The log repeats a few lines so interner misses stay out of the count.
func TestStreamAllocs(t *testing.T) {
	lines := []string{
		"2010-07-01T10:00:00Z company-01 mta-accept msg=m-1 from=a@b.example size=4096",
		"2010-07-01T10:00:00Z company-02 mta-drop msg=m-2 reason=unknown-recipient size=900",
		"2010-07-01T10:00:01Z company-01 dispatch msg=m-3 spool=gray",
		"2010-07-01T10:00:01Z company-03 challenge msg=m-4 to=sender@remote.example",
		"2010-07-01T10:00:02Z company-02 deliver msg=m-5 via=whitelist",
	}
	const reps = 20000 // ~7 MiB: seven 1 MiB blocks, more than the free list holds
	input := []byte(strings.Repeat(strings.Join(lines, "\n")+"\n", reps))
	n := len(lines) * reps
	for _, workers := range []int{1, 2} {
		var agg *maillog.Aggregate
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			agg, err = logscan.Scan(bytes.NewReader(input), logscan.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
		})
		if agg.Lines != int64(n) || agg.BadLines != 0 {
			t.Fatalf("workers=%d: lines=%d bad=%d, want %d/0", workers, agg.Lines, agg.BadLines, n)
		}
		if allocs > float64(n/100) {
			t.Errorf("workers=%d: stream scan of %d lines made %.0f allocations, want at most %d", workers, n, allocs, n/100)
		}
	}
}

// TestScanCounters: the progress counters converge on the true totals
// once the scan finishes.
func TestScanCounters(t *testing.T) {
	log := genLog(t, 12000, 9)
	before := logscan.TotalStats()
	var c logscan.Counters
	agg, err := logscan.Scan(bytes.NewReader(log), logscan.Options{Workers: 4, Counter: &c})
	if err != nil {
		t.Fatal(err)
	}
	events := agg.Lines - agg.BadLines
	if got := c.Events.Load(); got != events {
		t.Errorf("counter events = %d, want %d", got, events)
	}
	if got := c.Lines.Load(); got != agg.Lines {
		t.Errorf("counter lines = %d, want %d", got, agg.Lines)
	}
	if got := c.Bytes.Load(); got != int64(len(log)) {
		t.Errorf("counter bytes = %d, want %d", got, len(log))
	}
	after := logscan.TotalStats()
	if after.Events-before.Events != events {
		t.Errorf("package totals moved by %d events, want %d", after.Events-before.Events, events)
	}
}

// errReader fails after the wrapped reader drains.
type errReader struct {
	r   io.Reader
	err error
}

func (e errReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		return n, e.err
	}
	return n, err
}

// TestStreamReadError: a mid-stream read failure surfaces as a wrapped
// error naming the line reached, alongside the partial aggregate.
func TestStreamReadError(t *testing.T) {
	log := genLog(t, 1000, 5)
	boom := errors.New("pipe burst")
	agg, err := logscan.Scan(errReader{r: bytes.NewReader(log), err: boom}, logscan.Options{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "line 1000") {
		t.Fatalf("error lacks line number: %v", err)
	}
	if agg == nil || agg.Lines != 1000 {
		t.Fatal("partial aggregate missing")
	}
}
