package bodystore

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// body returns a body of n bytes that differs from every other (seed, n).
func body(seed, n int) string {
	b := make([]byte, 0, n+40)
	for len(b) < n {
		b = strconv.AppendInt(b, int64(seed), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(len(b)), 10)
		b = append(b, ';')
	}
	return string(b[:n])
}

// mustGet fails t unless r reads back as want.
func mustGet(t *testing.T, s *Store, r Ref, want string) {
	t.Helper()
	got, err := s.Get(r)
	if err != nil {
		t.Fatalf("Get(%v): %v", r, err)
	}
	if got != want {
		t.Fatalf("Get(%v) = %d bytes, want %d bytes (equal: %v)", r, len(got), len(want), got == want)
	}
}

// captureLog sends the standard logger to a buffer for the test.
func captureLog(t *testing.T) *bytes.Buffer {
	var buf bytes.Buffer
	prev, flags := log.Writer(), log.Flags()
	log.SetOutput(&buf)
	log.SetFlags(0)
	t.Cleanup(func() { log.SetOutput(prev); log.SetFlags(flags) })
	return &buf
}

func TestPutGetAcrossTheSegmentBoundary(t *testing.T) {
	s := New(t.TempDir())
	var refs []Ref
	var bodies []string
	// 300 KB bodies: the fourth does not fit the first tail and seals it.
	for i := 0; i < 7; i++ {
		b := body(i, 300<<10)
		r, kept := s.Put(b)
		if r == (Ref{}) || kept != "" {
			t.Fatalf("Put %d: ref %v, %d bytes kept on the heap", i, r, len(kept))
		}
		refs, bodies = append(refs, r), append(bodies, b)
		for j := range refs {
			mustGet(t, s, refs[j], bodies[j])
		}
	}
	if refs[2].seg != refs[0].seg || refs[3].seg == refs[0].seg {
		t.Fatalf("segments of the first four bodies: %v", refs[:4])
	}
	if f := s.segs[refs[0].seg].f; f == nil {
		t.Fatal("the first segment was not written when the tail filled")
	}
	if s.tail == nil || s.tail.f != nil || s.tail.id != refs[6].seg {
		t.Fatal("the newest bodies are not in the in-memory tail")
	}
	st := s.Stats()
	if st.Live != 7 || st.Bytes != 7*300<<10 || st.Errors != 0 {
		t.Fatalf("Stats = %+v", st)
	}
	if r, kept := s.Put(""); r != (Ref{}) || kept != "" {
		t.Fatalf("Put(\"\") = %v, %q", r, kept)
	}
	if got, err := s.Get(Ref{}); got != "" || err != nil {
		t.Fatalf("Get(Ref{}) = %q, %v", got, err)
	}
}

func TestBodyLargerThanASegment(t *testing.T) {
	s := New(t.TempDir())
	small := body(1, 100)
	rs, _ := s.Put(small)
	big := body(2, 3*segmentBytes+5)
	rb, kept := s.Put(big)
	if rb == (Ref{}) || kept != "" {
		t.Fatalf("Put(big): ref %v, %d bytes on the heap", rb, len(kept))
	}
	mustGet(t, s, rb, big)
	mustGet(t, s, rs, small)
	f := s.segs[rb.seg].f
	if f == nil || s.tail == s.segs[rb.seg] {
		t.Fatal("the large body is not in a segment file of its own")
	}
	s.Free(rb)
	if _, ok := s.segs[rb.seg]; ok {
		t.Fatal("the large body's segment outlived its Free")
	}
	if _, err := f.Stat(); err == nil {
		t.Fatal("the large body's segment file is still open")
	}
	mustGet(t, s, rs, small)
}

func TestSegmentClosedAfterItsLastFree(t *testing.T) {
	dir := t.TempDir()
	s := New(dir)
	var refs []Ref
	for i := 0; i < 5; i++ {
		r, _ := s.Put(body(i, 400<<10))
		refs = append(refs, r)
	}
	// Segments: [0 1] [2 3] [4 ...tail].
	first := refs[0].seg
	f := s.segs[first].f
	if f == nil || refs[1].seg != first || refs[2].seg == first {
		t.Fatalf("unexpected layout %v", refs)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 0 {
		t.Fatalf("segment files left linked in the directory: %v", names)
	}
	s.Free(refs[0])
	if _, err := f.Stat(); err != nil {
		t.Fatalf("segment closed with a body still live: %v", err)
	}
	mustGet(t, s, refs[1], body(1, 400<<10))
	s.Free(refs[1])
	if _, err := f.Stat(); err == nil {
		t.Fatal("segment still open after its last Free")
	}
	if _, err := s.Get(refs[1]); err == nil {
		t.Fatal("Get of a freed body in a closed segment succeeded")
	}
	// The tail is never closed, even when all of it is freed.
	s.Free(refs[4])
	if s.tail == nil || s.segs[refs[4].seg] == nil {
		t.Fatal("the tail was dropped by the Free of its only body")
	}
	r, _ := s.Put("after")
	mustGet(t, s, r, "after")
	mustGet(t, s, refs[2], body(2, 400<<10))
	if st := s.Stats(); st.Live != 3 || st.Bytes != 2*400<<10+5 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestConcurrentPutGetFree(t *testing.T) {
	s := New(t.TempDir())
	const workers, perWorker = 4, 600
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			type kept struct {
				r Ref
				b string
			}
			var live []kept
			for i := 0; i < perWorker; i++ {
				b := body(w*perWorker+i, 1+rng.Intn(16<<10))
				r, heap := s.Put(b)
				if r == (Ref{}) || heap != "" {
					errs <- fmt.Errorf("worker %d: Put did not store", w)
					return
				}
				live = append(live, kept{r, b})
				if rng.Intn(3) == 0 {
					k := rng.Intn(len(live))
					s.Free(live[k].r)
					live = append(live[:k], live[k+1:]...)
				}
				if len(live) == 0 {
					continue
				}
				k := live[rng.Intn(len(live))]
				if got, err := s.Get(k.r); err != nil || got != k.b {
					errs <- fmt.Errorf("worker %d: Get(%v) = %d bytes, %v", w, k.r, len(got), err)
					return
				}
			}
			for _, k := range live {
				if got, err := s.Get(k.r); err != nil || got != k.b {
					errs <- fmt.Errorf("worker %d: final Get(%v) = %d bytes, %v", w, k.r, len(got), err)
					return
				}
				s.Free(k.r)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Live != 0 || st.Bytes != 0 || st.Errors != 0 {
		t.Fatalf("Stats after every Free = %+v", st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, seg := range s.segs {
		if seg != s.tail {
			t.Errorf("segment %d still open with every body freed", id)
		}
	}
}

// TestFailedWriteKeepsTheBody: a segment that cannot be written stays in
// memory, and a large body that cannot be written stays on the heap; each
// failure is counted and logged.
func TestFailedWriteKeepsTheBody(t *testing.T) {
	logs := captureLog(t)
	s := New(filepath.Join(t.TempDir(), "missing"))
	var refs []Ref
	for i := 0; i < 4; i++ {
		r, kept := s.Put(body(i, 400<<10))
		if r == (Ref{}) || kept != "" {
			t.Fatalf("Put %d: ref %v, %d bytes kept", i, r, len(kept))
		}
		refs = append(refs, r)
	}
	if st := s.Stats(); st.Errors != 1 || st.Live != 4 {
		t.Fatalf("after a failed seal: Stats = %+v", st)
	}
	for i, r := range refs {
		mustGet(t, s, r, body(i, 400<<10))
	}
	big := body(9, segmentBytes+1)
	r, kept := s.Put(big)
	if r != (Ref{}) || kept != big {
		t.Fatalf("failed large Put: ref %v, heap copy equal: %v", r, kept == big)
	}
	if st := s.Stats(); st.Errors != 2 || st.Live != 4 {
		t.Fatalf("after a failed large write: Stats = %+v", st)
	}
	if n := strings.Count(logs.String(), "bodystore: "); n != 2 {
		t.Fatalf("%d failures logged, want 2:\n%s", n, logs)
	}
	// Freeing the unwritten segment's bodies releases its memory.
	s.Free(refs[0])
	s.Free(refs[1])
	if _, ok := s.segs[refs[0].seg]; ok {
		t.Fatal("the unwritten segment outlived its last Free")
	}
}

// TestFailedReadIsCountedAndKeepsTheBody: a read that fails is counted
// and logged, and the body stays in the store.
func TestFailedReadIsCountedAndKeepsTheBody(t *testing.T) {
	logs := captureLog(t)
	s := New(t.TempDir())
	r1, _ := s.Put(body(1, 600<<10))
	s.Put(body(2, 600<<10)) // seals the first segment
	f := s.segs[r1.seg].f
	if f == nil {
		t.Fatal("first segment not written")
	}
	// Swap the segment's file for a closed one: every read of it fails.
	broken, err := os.CreateTemp(t.TempDir(), "broken")
	if err != nil {
		t.Fatal(err)
	}
	broken.Close()
	s.mu.Lock()
	s.segs[r1.seg].f = broken
	s.mu.Unlock()
	if _, err := s.Get(r1); err == nil {
		t.Fatal("Get from a failing file succeeded")
	}
	if st := s.Stats(); st.Errors != 1 || st.Live != 2 {
		t.Fatalf("Stats after a failed read = %+v", st)
	}
	if !strings.Contains(logs.String(), "bodystore: read body") {
		t.Fatalf("failed read not logged: %q", logs)
	}
	s.mu.Lock()
	s.segs[r1.seg].f = f
	s.mu.Unlock()
	mustGet(t, s, r1, body(1, 600<<10))
}
