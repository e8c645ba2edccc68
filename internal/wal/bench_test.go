package wal

import (
	"testing"
	"time"
)

// BenchmarkWALAppend measures group-commit append throughput: parallel
// appenders feeding the single background flusher. The interesting
// numbers are ns/op (append latency without the fsync wait) and
// allocs/op, which the alloc test below pins at <= 1.
func BenchmarkWALAppend(b *testing.B) {
	l, _, err := Open(Options{Dir: b.TempDir(), FsyncInterval: time.Millisecond, SegmentBytes: 64 << 20}, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := testRecord(1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(rec); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if err := l.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWALAppendSync measures the full durability round trip: every
// append followed by a Sync, which flushes inline: the fsync sets the
// latency floor, and Syncs that queue behind one flush share the next.
func BenchmarkWALAppendSync(b *testing.B) {
	l, _, err := Open(Options{Dir: b.TempDir(), FsyncInterval: 200 * time.Microsecond, SegmentBytes: 64 << 20}, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := testRecord(1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := l.Append(rec); err != nil {
				b.Error(err)
				return
			}
			if err := l.Sync(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestAppendAllocs is the CI gate for the zero-allocation append path:
// the encoder writes into the log's reusable batch buffer, so in steady
// state an append must cost at most one allocation (amortised buffer
// growth).
func TestAppendAllocs(t *testing.T) {
	l, _, err := Open(Options{Dir: t.TempDir(), Manual: true, SegmentBytes: 1 << 30}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := testRecord(1)
	// Warm the batch buffer past its growth phase, then flush so the
	// recycled buffer is reused.
	for i := 0; i < 4096; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Fatalf("Append allocates %.2f allocs/op, want <= 1", avg)
	}
}
