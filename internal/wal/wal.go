package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Segment file format constants.
const (
	segMagic      = "CRWAL001"
	segHeaderSize = len(segMagic) + 8 // magic + u64 LE first LSN
	segPattern    = "wal-*.seg"
)

// Options parameterises a Log. Zero values get defaults.
type Options struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// SegmentBytes is the rotation threshold (default 4 MiB). A segment
	// is sealed at the first group-commit boundary at or past it.
	SegmentBytes int64
	// FsyncInterval is the group-commit window: after the first append
	// of a batch the flusher waits this long for more appenders before
	// the single write+fsync. 0 (the default) fsyncs as fast as appends
	// arrive, still batching whatever accumulates during each fsync.
	// Sync does not wait for the window: it flushes inline.
	FsyncInterval time.Duration
	// Manual disables the background flusher: nothing reaches disk until
	// Sync or Close. Deterministic tests and the crash-restart experiment
	// use this to control exactly which records are durable.
	Manual bool
	// Fsync is the flush's fsync of the active segment; nil means
	// (*os.File).Sync. Its error fails the log like a real one. The
	// segment header's fsync, at open and rotation, calls Sync directly.
	Fsync func(*os.File) error
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FsyncInterval < 0 {
		o.FsyncInterval = 0
	}
	if o.Fsync == nil {
		o.Fsync = (*os.File).Sync
	}
	return o
}

// ReplayStats summarises what Open found on disk.
type ReplayStats struct {
	// Replayed counts records handed to the apply callback.
	Replayed int
	// LastLSN is the last valid record's LSN (0 for an empty log).
	LastLSN uint64
	// Truncated reports whether a torn or corrupt tail was cut off.
	Truncated bool
	// TornBytes is how many trailing bytes the truncation discarded.
	TornBytes int64
}

// Metrics is an operational snapshot of the log.
type Metrics struct {
	Appends      int64
	Fsyncs       int64
	Bytes        int64 // payload+frame bytes written to segments
	Replayed     int64 // records replayed at Open
	Compactions  int64 // CompactThrough calls that removed segments
	FsyncErrors  int64 // failed fsyncs: at most 1, the failure fails the log
	LastLSN      uint64
	DurableLSN   uint64
	Segments     int
	PendingBytes int64 // encoded but not yet written
}

// segInfo tracks one on-disk segment.
type segInfo struct {
	name  string
	first uint64 // LSN of the segment's first record
}

// Log is the append-only write-ahead log. Append is safe for concurrent
// use and never blocks on the disk: records are framed into an
// in-memory batch that the background flusher writes and fsyncs (group
// commit). Sync is the durability barrier, flushing on its caller's
// goroutine. The log fails stop: its first failed write or fsync is
// kept, the durable LSN never moves again, and Append, Sync, Rotate and
// Close return that error, because a retried fsync can report success
// over pages the failed one dropped.
type Log struct {
	opts Options

	// flushMu serialises flushOnce (the only writer of seg files).
	flushMu sync.Mutex

	mu       sync.Mutex
	buf      []byte // encoded frames not yet flushed
	spare    []byte // recycled batch buffer
	nextLSN  uint64
	appended uint64 // last assigned LSN
	durable  uint64 // last LSN fsynced
	err      error  // first failed write or fsync; the log takes no more work
	seg      *os.File
	segs     []segInfo // oldest first; last entry is the active segment
	segBytes int64     // active segment size including header
	closed   bool

	appends, fsyncs, bytes int64
	replayed               int64
	compactions            int64
	fsyncErr               int64

	stopCh  chan struct{}
	flushCh chan struct{}
	done    chan struct{}
}

// segName returns the file name for a segment starting at first.
func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }

// parseSegName inverts segName.
func parseSegName(name string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	hex, ok = strings.CutSuffix(hex, ".seg")
	if !ok || len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// SyncDir fsyncs a directory so the entries just created, renamed or
// removed in it are durable. Some platforms refuse to fsync directories;
// those errors are ignored — the entry change already happened, and
// durability is simply best-effort there.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// Open replays the log in dir and opens it for appending. Every valid
// record with LSN > fromLSN is handed to apply in LSN order (apply may
// be nil to skip replay); the first bad frame truncates its segment and
// discards any later segments — a torn tail is bounded data loss, never
// a boot failure. fromLSN is the newest snapshot's cut, which also seeds
// LSN monotonicity when the log was fully compacted away.
func Open(opts Options, fromLSN uint64, apply func(Record) error) (*Log, ReplayStats, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, ReplayStats{}, errors.New("wal: no directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, ReplayStats{}, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		opts:    opts,
		stopCh:  make(chan struct{}),
		flushCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}

	names, err := filepath.Glob(filepath.Join(opts.Dir, segPattern))
	if err != nil {
		return nil, ReplayStats{}, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(names) // fixed-width hex first-LSN: lexical == numeric

	var stats ReplayStats
	var drop []string // segments beyond a tear, deleted below
	for i, path := range names {
		first, ok := parseSegName(filepath.Base(path))
		if !ok {
			continue
		}
		good, tornBytes, err := l.replaySegment(path, fromLSN, apply, &stats)
		if err != nil {
			return nil, stats, err
		}
		if tornBytes > 0 || good < 0 {
			stats.Truncated = true
			if good < 0 {
				// Unreadable header: the segment never finished being
				// created. Drop it and everything after it.
				drop = names[i:]
			} else {
				stats.TornBytes += tornBytes
				l.segs = append(l.segs, segInfo{name: filepath.Base(path), first: first})
				drop = names[i+1:]
			}
			break
		}
		l.segs = append(l.segs, segInfo{name: filepath.Base(path), first: first})
	}
	for _, path := range drop {
		if fi, err := os.Stat(path); err == nil {
			stats.TornBytes += fi.Size()
		}
		if err := os.Remove(path); err != nil {
			return nil, stats, fmt.Errorf("wal: drop torn segment: %w", err)
		}
	}

	l.nextLSN = max(stats.LastLSN, fromLSN) + 1
	l.appended = l.nextLSN - 1
	l.durable = l.appended
	l.replayed = int64(stats.Replayed)

	if len(l.segs) == 0 {
		if err := l.createSegment(l.nextLSN); err != nil {
			return nil, stats, err
		}
	} else {
		active := filepath.Join(opts.Dir, l.segs[len(l.segs)-1].name)
		f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, stats, fmt.Errorf("wal: reopen active segment: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, stats, fmt.Errorf("wal: %w", err)
		}
		l.seg, l.segBytes = f, fi.Size()
	}

	if !opts.Manual {
		go l.run()
	} else {
		close(l.done) // no flusher to wait for
	}
	return l, stats, nil
}

// replaySegment streams one segment's records into apply. It returns
// good >= 0 (the number of records seen) and tornBytes > 0 if the
// segment ends in a bad frame, which replaySegment truncates in place.
// good < 0 means the header itself was unreadable.
func (l *Log) replaySegment(path string, fromLSN uint64, apply func(Record) error, stats *ReplayStats) (good int, tornBytes int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return -1, 0, fmt.Errorf("wal: read segment: %w", err)
	}
	if len(b) < segHeaderSize || string(b[:len(segMagic)]) != segMagic {
		return -1, 0, nil
	}
	off := segHeaderSize
	for off < len(b) {
		rec, n, derr := decodeFrame(b[off:])
		if derr != nil {
			break
		}
		if rec.LSN > fromLSN && apply != nil {
			if aerr := apply(rec); aerr != nil {
				return good, 0, fmt.Errorf("wal: replay LSN %d: %w", rec.LSN, aerr)
			}
			stats.Replayed++
		}
		stats.LastLSN = rec.LSN
		off += n
		good++
	}
	if off < len(b) {
		tornBytes = int64(len(b) - off)
		if err := os.Truncate(path, int64(off)); err != nil {
			return good, tornBytes, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return good, tornBytes, nil
}

// createSegment makes a fresh active segment starting at first. Caller
// must hold flushMu or be single-threaded (Open).
func (l *Log) createSegment(first uint64) error {
	var hdr [16]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], first)
	name := segName(first)
	path := filepath.Join(l.opts.Dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(hdr[:segHeaderSize]); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header sync: %w", err)
	}
	if err := SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: dir sync: %w", err)
	}
	if old := l.seg; old != nil {
		old.Close()
	}
	l.seg = f
	l.segBytes = int64(segHeaderSize)
	l.segs = append(l.segs, segInfo{name: name, first: first})
	return nil
}

// Append frames r, assigns its LSN and queues it for the next flush. It
// returns at once; durability requires Sync (or trust in the flush
// interval). It fails only on a closed or failed log. Allocation-free
// in steady state.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	if err := l.stoppedLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	l.appended = r.LSN
	l.buf = appendFrame(l.buf, &r)
	l.appends++
	l.mu.Unlock()
	select { // a Manual log has no flusher to read the wake-up
	case l.flushCh <- struct{}{}:
	default:
	}
	return r.LSN, nil
}

// stoppedLocked returns why the log takes no more appends: its first
// failure, or Close. Caller holds l.mu.
func (l *Log) stoppedLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errors.New("wal: log closed")
	}
	return nil
}

// run is the group-commit flusher: woken by the first append of a
// batch, it waits FsyncInterval for co-travellers, then writes and
// fsyncs the whole batch once. It stops with the log; Close flushes
// the rest.
func (l *Log) run() {
	defer close(l.done)
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.flushCh:
		}
		if iv := l.opts.FsyncInterval; iv > 0 {
			t := time.NewTimer(iv)
			select {
			case <-t.C:
			case <-l.stopCh:
				t.Stop()
				return
			}
		}
		l.flushOnce() // a failure is kept in l.err; Append, Sync and Close report it
	}
}

// flushOnce writes and fsyncs everything appended so far, then seals
// the active segment once it reaches SegmentBytes. It is the single
// writer of segment files. The first failed write or fsync fails the
// log: the batch is neither retried nor counted durable, because a
// failed fsync may already have dropped its pages, and every later
// call returns that error.
func (l *Log) flushOnce() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.Lock()
	if err := l.err; err != nil || len(l.buf) == 0 {
		l.mu.Unlock()
		return err
	}
	batch, target, seg := l.buf, l.appended, l.seg
	l.buf, l.spare = l.spare[:0], nil
	l.mu.Unlock()

	_, werr := seg.Write(batch)
	var serr error
	if werr == nil {
		serr = l.opts.Fsync(seg)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.spare = batch[:0]
	switch {
	case werr != nil:
		l.err = fmt.Errorf("wal: write: %w", werr)
	case serr != nil:
		l.fsyncErr++
		l.err = fmt.Errorf("wal: fsync: %w", serr)
	default:
		l.bytes += int64(len(batch))
		l.segBytes += int64(len(batch))
		l.durable = target
		l.fsyncs++
		if l.segBytes >= l.opts.SegmentBytes && !l.closed {
			l.err = l.createSegment(target + 1)
		}
	}
	return l.err
}

// Sync flushes every record appended before the call on the caller's
// goroutine and returns once they are durable. On a failed log it
// returns the failure.
func (l *Log) Sync() error { return l.flushOnce() }

// Rotate flushes and seals the active segment, starting a fresh one, so
// a following CompactThrough can delete everything already snapshotted.
// A still-empty active segment is left alone. Failing to start the new
// segment fails the log.
func (l *Log) Rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.stoppedLocked(); err != nil {
		return err
	}
	if l.segBytes == int64(segHeaderSize) {
		return nil
	}
	l.err = l.createSegment(l.durable + 1)
	return l.err
}

// CompactThrough deletes sealed segments all of whose records have
// LSN <= lsn — they are fully covered by a snapshot. The active segment
// is never touched (Rotate first to seal it).
func (l *Log) CompactThrough(lsn uint64) (removed int, err error) {
	l.mu.Lock()
	var rm []segInfo
	for len(l.segs) > 1 && l.segs[1].first <= lsn+1 {
		rm = append(rm, l.segs[0])
		l.segs = l.segs[1:]
	}
	if len(rm) > 0 {
		l.compactions++
	}
	dir := l.opts.Dir
	l.mu.Unlock()
	for _, s := range rm {
		if rerr := os.Remove(filepath.Join(dir, s.name)); rerr != nil && err == nil {
			err = fmt.Errorf("wal: compact: %w", rerr)
			continue
		}
		removed++
	}
	if removed > 0 {
		if serr := SyncDir(dir); serr != nil && err == nil {
			err = fmt.Errorf("wal: compact dir sync: %w", serr)
		}
	}
	return removed, err
}

// LastLSN returns the most recently assigned LSN (0 if none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// DurableLSN returns the newest fsynced LSN.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Metrics returns an operational snapshot.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Metrics{
		Appends:      l.appends,
		Fsyncs:       l.fsyncs,
		Bytes:        l.bytes,
		Replayed:     l.replayed,
		Compactions:  l.compactions,
		FsyncErrors:  l.fsyncErr,
		LastLSN:      l.appended,
		DurableLSN:   l.durable,
		Segments:     len(l.segs),
		PendingBytes: int64(len(l.buf)),
	}
}

// Segments returns the on-disk segment list, oldest first.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, 0, len(l.segs))
	for i, s := range l.segs {
		info := SegmentInfo{Name: s.name, FirstLSN: s.first, Active: i == len(l.segs)-1}
		if fi, err := os.Stat(filepath.Join(l.opts.Dir, s.name)); err == nil {
			info.Bytes = fi.Size()
		}
		out = append(out, info)
	}
	return out
}

// SegmentInfo describes one segment for the admin UI and dumps.
type SegmentInfo struct {
	Name     string
	FirstLSN uint64
	Bytes    int64
	Active   bool
}

// Close flushes everything and releases the log, returning the log's
// failure if it has one. Safe to call once.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stopCh)
	<-l.done
	err := l.flushOnce()
	l.mu.Lock()
	seg := l.seg
	l.seg = nil
	l.mu.Unlock()
	if cerr := seg.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// CloneForCrash writes a crash image of the log into dstDir: segment
// files survive byte-for-byte (they hold only flushed data), and
// torn(pending) — the injected remains of the un-synced in-memory batch
// — is appended to the active segment, exactly what a power cut during
// the next group commit could leave. Manual-mode logs only (the flusher
// would race the copy).
func (l *Log) CloneForCrash(dstDir string, torn func([]byte) []byte) error {
	if !l.opts.Manual {
		return errors.New("wal: CloneForCrash needs Manual mode")
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return err
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, s := range l.segs {
		b, err := os.ReadFile(filepath.Join(l.opts.Dir, s.name))
		if err != nil {
			return err
		}
		if i == len(l.segs)-1 && len(l.buf) > 0 && torn != nil {
			b = append(b, torn(l.buf)...)
		}
		if err := os.WriteFile(filepath.Join(dstDir, s.name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Dump pretty-prints a single segment file to w (logstats -wal): the
// header, every decodable record, and where (if anywhere) the tail
// tears. It never modifies the file.
func Dump(w io.Writer, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) < segHeaderSize || string(b[:len(segMagic)]) != segMagic {
		return fmt.Errorf("wal: %s: not a WAL segment (bad magic)", path)
	}
	first := binary.LittleEndian.Uint64(b[len(segMagic):segHeaderSize])
	fmt.Fprintf(w, "segment %s: first LSN %d, %d bytes\n", filepath.Base(path), first, len(b))
	off := segHeaderSize
	n := 0
	for off < len(b) {
		rec, sz, derr := decodeFrame(b[off:])
		if derr != nil {
			fmt.Fprintf(w, "TORN TAIL at offset %d: %d trailing bytes are not a valid frame (replay truncates here)\n",
				off, len(b)-off)
			return nil
		}
		fmt.Fprintf(w, "%8d  %s  %-12s origin=%-10s", rec.LSN,
			rec.Time.Format("2006-01-02T15:04:05.000Z07:00"), rec.Op, rec.Origin)
		switch rec.Op {
		case OpWhiteAdd, OpBlackAdd, OpWhiteRemove:
			fmt.Fprintf(w, " user=%s sender=%s", rec.User, rec.Sender)
		case OpReputation:
			fmt.Fprintf(w, " sender=%s ip=%s", rec.Sender, rec.IP)
		case OpGreylist:
			passed := "-"
			if rec.Aux != 0 {
				passed = time.Unix(0, rec.Aux).UTC().Format(time.RFC3339)
			}
			fmt.Fprintf(w, " tuple=%s passed=%s", rec.User, passed)
		case OpSpoolEnqueue:
			fmt.Fprintf(w, " msg=%s to=%s size=%d", rec.User, rec.Sender, rec.Value)
		case OpSpoolAttempt:
			next := "-"
			if rec.Aux != 0 {
				next = time.Unix(0, rec.Aux).UTC().Format(time.RFC3339)
			}
			fmt.Fprintf(w, " msg=%s attempts=%d next=%s", rec.User, rec.Value, next)
		case OpSpoolSent, OpSpoolBounced, OpSpoolExpired:
			fmt.Fprintf(w, " msg=%s attempts=%d", rec.User, rec.Value)
		}
		fmt.Fprintln(w)
		off += sz
		n++
	}
	fmt.Fprintf(w, "%d records, clean tail\n", n)
	return nil
}
