package logscan_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/logscan"
	"repro/internal/maillog"
)

// TestDecodeAllocs pins the decode path's allocation budget: in
// aggregation mode (SkipMsgID, warmed interner) a line costs zero
// allocations; keeping the per-event message ID costs exactly the one
// string it must mint. crbench's logscan.allocs_per_event reports the
// whole-scan figure on top of this, interner misses on high-cardinality
// values included.
func TestDecodeAllocs(t *testing.T) {
	lines := [][]byte{
		[]byte("2010-07-01T10:00:00Z corp mta-accept msg=m-1 from=a@b.example size=4096"),
		[]byte("2010-07-01T10:00:01Z corp dispatch msg=m-1 spool=gray"),
		[]byte("2010-07-01T10:00:02Z corp reputation msg=m-1 action=fast-path band=trusted score=0.812 keys=a;d;i"),
		[]byte("2010-07-01T10:00:03Z corp bounce msg=m-1 class=no-user status=5.1.1 domain=b.example"),
		[]byte("2010-07-01T10:00:04Z corp loop-suppressed msg=m-2 from=challenge@peer.example auto=auto-replied"),
	}
	var e maillog.Event

	agg := logscan.NewDecoder()
	agg.SkipMsgID = true
	warm := func(d *logscan.Decoder) {
		for _, l := range lines {
			if err := d.ParseLineBytes(l, &e); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(agg)
	if n := testing.AllocsPerRun(200, func() { warm(agg) }); n > 0 {
		t.Errorf("aggregation-mode decode allocates %.1f per 5 lines, want 0", n)
	}

	full := logscan.NewDecoder()
	warm(full)
	if n := testing.AllocsPerRun(200, func() { warm(full) }); n > 5 {
		t.Errorf("full decode allocates %.1f per 5 lines, want 5 (one msg-id string each)", n)
	}
}

// BenchmarkParseLineBytes measures the single-line decode cost —
// the per-event unit the paper's 90M-email crawl multiplies.
func BenchmarkParseLineBytes(b *testing.B) {
	line := []byte("2010-07-01T10:00:00Z scn-03 mta-drop msg=scn-03-004242 reason=unknown-recipient size=4200")
	d := logscan.NewDecoder()
	d.SkipMsgID = true
	var e maillog.Event
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.ParseLineBytes(line, &e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogScan runs the full parallel scan over an in-memory
// synthetic log at several worker counts, reporting events/sec and
// allocs/event — the in-tree twin of crbench's logscan_600k workload,
// and the target to profile the crawler with:
//
//	go test -run '^$' -bench BenchmarkLogScan -cpuprofile cpu.pb.gz ./internal/logscan/
func BenchmarkLogScan(b *testing.B) {
	const n = 100000
	log := genLog(b, n, 42)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(log)))
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				agg, err := logscan.ScanReaderAt(bytes.NewReader(log), int64(len(log)), logscan.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				events = agg.Lines - agg.BadLines
			}
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(events)/perOp, "events/sec")
		})
	}
}
