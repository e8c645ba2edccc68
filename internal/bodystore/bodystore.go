// Package bodystore keeps message bodies out of the heap: an
// append-only store of bodies in unlinked segment files, shared by the
// engine's quarantine and the mailbox. The heap keeps a 12-byte Ref per
// body.
//
// Appends go to an in-memory tail of 1 MiB, which is written to a
// new segment file with one write when the next body does not fit; bodies
// still in the tail are read from memory. A segment file is unlinked as
// soon as it is created, so nothing outlives the process, and it is
// closed once every body in it has been freed. Nothing is fsynced: the
// bodies are not durable state, and a restart loses them together with
// the quarantine and the inboxes that refer to them.
//
// A failure never loses a body. A segment whose file cannot be created or
// written keeps its tail in memory, and a body too large for a segment
// that cannot be written stays on the heap; either is counted in
// Stats.Errors and logged. A failed read is counted and logged too, and
// the body stays in the store for the next read.
package bodystore

import (
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"sync"
	"unsafe"
)

// segmentBytes is the size of the in-memory tail, and the most a segment
// holds unless it holds a single larger body.
const segmentBytes = 1 << 20

// Ref refers to one body in a Store. The zero Ref refers to nothing: a
// Put that did not keep the body returns it.
type Ref struct {
	seg, off, n uint32
}

// segment is one segment file, or the tail that will become one.
type segment struct {
	id uint32
	// f is the unlinked file holding the segment once it is sealed; nil
	// while the segment is the tail, and when its write failed.
	f *os.File
	// mem holds the segment's bytes while it is the tail, and for good
	// when its write failed.
	mem []byte
	// size is the number of bytes appended.
	size int
	// live is the number of bodies not yet freed.
	live int
}

// Store is an append-only body store. Safe for concurrent use.
type Store struct {
	dir string

	mu     sync.Mutex
	segs   map[uint32]*segment
	tail   *segment
	nextID uint32
	// spare is the tail buffer of the last sealed segment, reused by the
	// next tail.
	spare []byte
	bytes int64
	live  int64
	errs  int64
}

// New returns a store that keeps its segment files in dir. Nothing is
// created until the first Put that fills a segment.
func New(dir string) *Store {
	return &Store{dir: dir, segs: make(map[uint32]*segment)}
}

// Put keeps a copy of body and returns a reference to it. body may be
// borrowed: Put does not keep it. When the store cannot keep the copy it
// returns the zero Ref and a heap copy for the caller to keep instead;
// an empty body is never stored.
func (s *Store) Put(body string) (Ref, string) {
	if body == "" {
		return Ref{}, ""
	}
	if len(body) > segmentBytes {
		return s.putLarge(body)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tail != nil && s.tail.size+len(body) > segmentBytes {
		s.sealLocked()
	}
	if s.tail == nil {
		buf := s.spare
		if buf == nil {
			buf = make([]byte, segmentBytes)
		}
		s.spare = nil
		s.tail = s.addLocked(&segment{mem: buf})
	}
	t := s.tail
	ref := Ref{seg: t.id, off: uint32(t.size), n: uint32(len(body))}
	t.size += copy(t.mem[t.size:], body)
	t.live++
	s.live++
	s.bytes += int64(len(body))
	return ref, ""
}

// addLocked registers seg under the next segment ID. Callers hold s.mu.
func (s *Store) addLocked(seg *segment) *segment {
	s.nextID++
	seg.id = s.nextID
	s.segs[seg.id] = seg
	return seg
}

// sealLocked writes the tail to its segment file and starts no new one:
// the next Put does. Callers hold s.mu.
func (s *Store) sealLocked() {
	t := s.tail
	s.tail = nil
	if t.live == 0 {
		// Everything in it was freed while it was the tail.
		s.spare = t.mem
		s.dropLocked(t)
		return
	}
	f, err := s.write(t.mem[:t.size])
	if err != nil {
		// The tail's buffer becomes the segment: its bodies stay
		// readable from memory until they are freed.
		s.failLocked("seal segment %d: %v (%d bytes kept in memory)", t.id, err, t.size)
		return
	}
	t.f = f
	s.spare, t.mem = t.mem, nil
}

// putLarge stores a body larger than a segment in a segment of its own.
func (s *Store) putLarge(body string) (Ref, string) {
	if len(body) > math.MaxUint32 {
		s.mu.Lock()
		s.failLocked("body of %d bytes exceeds a Ref", len(body))
		s.mu.Unlock()
		return Ref{}, strings.Clone(body)
	}
	f, err := s.write(unsafe.Slice(unsafe.StringData(body), len(body)))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.failLocked("write %d-byte body: %v (kept on the heap)", len(body), err)
		return Ref{}, strings.Clone(body)
	}
	seg := s.addLocked(&segment{f: f, size: len(body), live: 1})
	s.live++
	s.bytes += int64(len(body))
	return Ref{seg: seg.id, n: uint32(len(body))}, ""
}

// write creates an unlinked segment file in the store's directory and
// writes p to it with one write.
func (s *Store) write(p []byte) (*os.File, error) {
	f, err := os.CreateTemp(s.dir, "bodies-*.seg")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(p); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Get returns the body r refers to.
func (s *Store) Get(r Ref) (string, error) {
	if r == (Ref{}) {
		return "", nil
	}
	s.mu.Lock()
	seg := s.segs[r.seg]
	if seg == nil || int(r.off)+int(r.n) > seg.size {
		s.failLocked("read of unknown body %v", r)
		s.mu.Unlock()
		return "", fmt.Errorf("bodystore: no body %v", r)
	}
	if seg.f == nil {
		body := string(seg.mem[r.off : r.off+r.n])
		s.mu.Unlock()
		return body, nil
	}
	f := seg.f
	s.mu.Unlock()
	// The file stays open while r is live: only the Free of a segment's
	// last body closes it.
	buf := make([]byte, r.n)
	if _, err := f.ReadAt(buf, int64(r.off)); err != nil {
		s.mu.Lock()
		s.failLocked("read body %v: %v", r, err)
		s.mu.Unlock()
		return "", fmt.Errorf("bodystore: read body: %w", err)
	}
	return unsafe.String(unsafe.SliceData(buf), len(buf)), nil
}

// Free releases the body r refers to. A segment is closed with the Free
// of its last body, unless it is still the tail.
func (s *Store) Free(r Ref) {
	if r == (Ref{}) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seg := s.segs[r.seg]
	if seg == nil || seg.live == 0 {
		s.failLocked("free of unknown body %v", r)
		return
	}
	seg.live--
	s.live--
	s.bytes -= int64(r.n)
	if seg.live == 0 && seg != s.tail {
		s.dropLocked(seg)
	}
}

// dropLocked forgets a segment with no live bodies and closes its file.
// Callers hold s.mu.
func (s *Store) dropLocked(seg *segment) {
	delete(s.segs, seg.id)
	if seg.f != nil {
		if err := seg.f.Close(); err != nil {
			s.failLocked("close segment: %v", err)
		}
		seg.f = nil
	}
}

// failLocked counts and logs one failure. Callers hold s.mu.
func (s *Store) failLocked(format string, args ...any) {
	s.errs++
	log.Printf("bodystore: "+format, args...)
}

// Stats is an operational snapshot of a store.
type Stats struct {
	// Bytes is the size of the bodies not yet freed.
	Bytes int64
	// Live is the number of bodies not yet freed.
	Live int64
	// Errors counts failed writes and reads; see the package comment.
	Errors int64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Bytes: s.bytes, Live: s.live, Errors: s.errs}
}
