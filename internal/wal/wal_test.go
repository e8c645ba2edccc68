package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

var t0 = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)

// testRecord builds a deterministic record for index i.
func testRecord(i int) Record {
	return Record{
		Time:   t0.Add(time.Duration(i) * time.Second),
		Op:     Op(1 + i%5),
		Origin: fmt.Sprintf("origin-%d", i%3),
		User:   fmt.Sprintf("user%d@example.com", i%7),
		Sender: fmt.Sprintf("sender%d@spam.example", i),
		IP:     fmt.Sprintf("192.0.2.%d", i%250),
		Value:  int64(i % 6),
		Aux:    int64(i) * 17,
	}
}

func openManual(t *testing.T, dir string, fromLSN uint64, apply func(Record) error) (*Log, ReplayStats) {
	t.Helper()
	l, st, err := Open(Options{Dir: dir, Manual: true}, fromLSN, apply)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openManual(t, dir, 0, nil)
	var want []Record
	for i := 0; i < 50; i++ {
		r := testRecord(i)
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("LSN %d, want %d (gapless from 1)", lsn, i+1)
		}
		r.LSN = lsn
		want = append(want, r)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var got []Record
	l2, st := openManual(t, dir, 0, func(r Record) error { got = append(got, r); return nil })
	defer l2.Close()
	if st.Replayed != 50 || st.LastLSN != 50 || st.Truncated {
		t.Fatalf("replay stats = %+v", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ\n got %+v\nwant %+v", got[:2], want[:2])
	}
	// New appends continue the LSN sequence.
	lsn, err := l2.Append(testRecord(99))
	if err != nil || lsn != 51 {
		t.Fatalf("post-replay Append = %d, %v; want 51", lsn, err)
	}
}

func TestReplaySkipsSnapshotCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openManual(t, dir, 0, nil)
	for i := 0; i < 20; i++ {
		l.Append(testRecord(i))
	}
	l.Sync()
	l.Close()

	var got []Record
	l2, st := openManual(t, dir, 12, func(r Record) error { got = append(got, r); return nil })
	defer l2.Close()
	if st.Replayed != 8 {
		t.Fatalf("Replayed = %d, want 8", st.Replayed)
	}
	if got[0].LSN != 13 {
		t.Fatalf("first replayed LSN = %d, want 13", got[0].LSN)
	}
}

func TestFreshLogAfterFullCompaction(t *testing.T) {
	// A log whose segments were all compacted away must continue LSNs
	// from the snapshot cut, not restart at 1.
	dir := t.TempDir()
	l, _ := openManual(t, dir, 123, nil)
	defer l.Close()
	lsn, err := l.Append(testRecord(0))
	if err != nil || lsn != 124 {
		t.Fatalf("Append = %d, %v; want 124", lsn, err)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, st, err := Open(Options{Dir: dir, Manual: true, SegmentBytes: 512}, 0, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_ = st
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.Sync()
	if m := l.Metrics(); m.Segments < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", m.Segments)
	}

	// Snapshot cut at LSN 50, then compact: only segments wholly <= 50 go.
	removed, err := l.CompactThrough(50)
	if err != nil {
		t.Fatalf("CompactThrough: %v", err)
	}
	if removed == 0 {
		t.Fatal("compaction removed nothing")
	}
	l.Close()

	var got []Record
	l2, rst := openManual(t, dir, 50, func(r Record) error { got = append(got, r); return nil })
	defer l2.Close()
	if rst.Replayed != n-50 {
		t.Fatalf("replayed %d records after compaction, want %d", rst.Replayed, n-50)
	}
	for i, r := range got {
		if r.LSN != uint64(51+i) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, 51+i)
		}
	}
}

func TestRotateSealsActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openManual(t, dir, 0, nil)
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append(testRecord(i))
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if m := l.Metrics(); m.Segments != 2 {
		t.Fatalf("Segments = %d after Rotate, want 2", m.Segments)
	}
	// Rotate on an empty active segment is a no-op.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Segments != 2 {
		t.Fatalf("empty Rotate created a segment (%d)", m.Segments)
	}
	if removed, err := l.CompactThrough(10); err != nil || removed != 1 {
		t.Fatalf("CompactThrough = %d, %v; want 1 removed", removed, err)
	}
}

// TestTornTailEveryOffset is the crash-consistency fuzz: a committed
// log is truncated at EVERY byte offset, and separately corrupted at
// every byte offset, and replay must always (a) boot, (b) yield a
// strict prefix of the committed record sequence.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	l, _ := openManual(t, src, 0, nil)
	var committed []Record
	const n = 25
	for i := 0; i < n; i++ {
		r := testRecord(i)
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		r.LSN = lsn
		committed = append(committed, r)
	}
	l.Sync()
	l.Close()

	segs, err := filepath.Glob(filepath.Join(src, segPattern))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %v (%v)", segs, err)
	}
	orig, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(segs[0])

	check := func(t *testing.T, img []byte, label string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, base), img, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		l2, _, err := Open(Options{Dir: dir, Manual: true}, 0, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: boot failed: %v", label, err)
		}
		defer l2.Close()
		if len(got) > len(committed) {
			t.Fatalf("%s: replay invented records (%d > %d)", label, len(got), len(committed))
		}
		for i := range got {
			if got[i] != committed[i] {
				t.Fatalf("%s: replayed record %d differs from committed", label, i)
			}
		}
	}

	t.Run("truncate", func(t *testing.T) {
		for off := 0; off <= len(orig); off++ {
			check(t, orig[:off], fmt.Sprintf("truncate@%d", off))
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		for off := 0; off < len(orig); off++ {
			img := append([]byte(nil), orig...)
			img[off] ^= 0x5a
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, base), img, 0o644); err != nil {
				t.Fatal(err)
			}
			var got []Record
			l2, _, err := Open(Options{Dir: dir, Manual: true}, 0, func(r Record) error {
				got = append(got, r)
				return nil
			})
			if err != nil {
				t.Fatalf("corrupt@%d: boot failed: %v", off, err)
			}
			l2.Close()
			// A corrupted byte invalidates the frame containing it (and
			// all later frames); everything before must survive intact.
			if len(got) > len(committed) {
				t.Fatalf("corrupt@%d: replay invented records", off)
			}
			for i := range got {
				if got[i] != committed[i] {
					t.Fatalf("corrupt@%d: replay is not a committed prefix", off)
				}
			}
			if off >= segHeaderSize {
				// CRC must catch any corruption at or after the frame
				// that contains the flipped byte.
				covered := 0
				pos := segHeaderSize
				for covered < len(committed) {
					_, sz, err := decodeFrame(orig[pos:])
					if err != nil {
						break
					}
					if off < pos+sz {
						break
					}
					pos += sz
					covered++
				}
				if len(got) > covered {
					t.Fatalf("corrupt@%d: replay kept %d records, only %d precede the corruption", off, len(got), covered)
				}
			}
		}
	})
	t.Run("torn-write-injector", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			check(t, faults.TornWrite(rng, orig), fmt.Sprintf("torn-%d", trial))
		}
	})
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, FsyncInterval: time.Millisecond, SegmentBytes: 8 << 10}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(testRecord(g*per + i)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if i%10 == 0 {
					if err := l.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	m := l.Metrics()
	if m.DurableLSN != goroutines*per {
		t.Fatalf("DurableLSN = %d, want %d", m.DurableLSN, goroutines*per)
	}
	if m.Fsyncs >= m.Appends {
		t.Fatalf("no batching: %d fsyncs for %d appends", m.Fsyncs, m.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	count := 0
	last := uint64(0)
	l2, _, err := Open(Options{Dir: dir, Manual: true}, 0, func(r Record) error {
		count++
		if r.LSN != last+1 {
			return fmt.Errorf("gap: %d after %d", r.LSN, last)
		}
		last = r.LSN
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if count != goroutines*per {
		t.Fatalf("replayed %d, want %d", count, goroutines*per)
	}
}

func TestDump(t *testing.T) {
	dir := t.TempDir()
	l, _ := openManual(t, dir, 0, nil)
	for i := 0; i < 5; i++ {
		l.Append(testRecord(i))
	}
	l.Sync()
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	var buf bytes.Buffer
	if err := Dump(&buf, segs[0]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "first LSN 1") || !strings.Contains(out, "5 records, clean tail") {
		t.Fatalf("Dump output:\n%s", out)
	}

	// Torn file: Dump reports the tear instead of erroring.
	b, _ := os.ReadFile(segs[0])
	torn := filepath.Join(dir, "torn.seg")
	os.WriteFile(torn, b[:len(b)-3], 0o644)
	buf.Reset()
	if err := Dump(&buf, torn); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TORN TAIL") {
		t.Fatalf("Dump of torn segment:\n%s", buf.String())
	}
}
