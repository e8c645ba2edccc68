package logscan

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/maillog"
)

// MaxLineLen is the longest log line a scan decodes. A longer line is
// counted as one bad line and skipped through its newline, in both scan
// modes, so a hostile or corrupt log costs a bounded buffer and never
// aborts the crawl.
const MaxLineLen = 1024 * 1024

// flushEvery is how many events a worker folds locally before flushing
// into the shared progress counters. Coarse enough to keep the atomics
// off the per-line path, fine enough for a 5-second progress ticker.
const flushEvery = 8192

// minRangeBytes is the smallest byte range worth giving a worker; tiny
// files collapse to fewer workers rather than paying spawn overhead.
const minRangeBytes = 64 * 1024

// Counters exposes a running scan's progress. Workers flush their
// local tallies every few thousand events, so readers see slightly
// stale but monotonic values — enough for an events/sec ticker on a
// multi-minute crawl.
type Counters struct {
	Events   atomic.Int64
	Lines    atomic.Int64
	BadLines atomic.Int64
	Bytes    atomic.Int64
}

// Package-wide totals across all scans in the process, exported to the
// adminui /metrics page as logscan_events_total / logscan_bad_lines_total.
var (
	totalEvents   atomic.Int64
	totalBadLines atomic.Int64
)

// Stats is a snapshot of the process-wide scan totals.
type Stats struct {
	Events   int64
	BadLines int64
}

// TotalStats returns the process-wide totals over every scan so far.
func TotalStats() Stats {
	return Stats{Events: totalEvents.Load(), BadLines: totalBadLines.Load()}
}

// Options configures a scan. The zero value is ready to use.
type Options struct {
	// Workers is the parallelism; <=0 means GOMAXPROCS.
	Workers int
	// Counter, when non-nil, receives periodic progress updates.
	Counter *Counters
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// tally is a worker's local fold state: a shard aggregate plus event
// counts batched between flushes into the shared counters.
type tally struct {
	agg    *maillog.Aggregate
	opts   *Options
	events int64 // events since last flush
	bytes  int64 // bytes since last flush
	// lines and bad are agg.Lines and agg.BadLines at the last flush.
	lines, bad int64
}

func newTally(opts *Options) *tally {
	return &tally{agg: maillog.NewAggregate(), opts: opts}
}

// line processes one raw line (whitespace-trimmed here; may be empty).
func (t *tally) line(d *Decoder, e *maillog.Event, raw []byte) {
	t.bytes += int64(len(raw))
	b := bytes.TrimSpace(raw)
	if len(b) == 0 {
		return
	}
	t.agg.Lines++
	if err := d.ParseLineBytes(b, e); err != nil {
		t.agg.BadLines++
		return
	}
	t.agg.Add(e)
	t.events++
	if t.events >= flushEvery {
		t.flush()
	}
}

// oversized records a line past MaxLineLen: one bad line, n bytes.
func (t *tally) oversized(n int64) {
	t.agg.Lines++
	t.agg.BadLines++
	t.bytes += n
}

// flush publishes everything folded since the last flush — events,
// bytes, lines and bad lines — to the shared counters. Workers call it
// every flushEvery events and once when their input ends.
func (t *tally) flush() {
	lines, bad := t.agg.Lines-t.lines, t.agg.BadLines-t.bad
	totalEvents.Add(t.events)
	totalBadLines.Add(bad)
	if c := t.opts.Counter; c != nil {
		c.Events.Add(t.events)
		c.Lines.Add(lines)
		c.BadLines.Add(bad)
		c.Bytes.Add(t.bytes)
	}
	t.events, t.bytes = 0, 0
	t.lines, t.bad = t.agg.Lines, t.agg.BadLines
}

// Scan aggregates a decision-log stream in parallel. Inputs backed by a
// random-access source — a regular file (stdin redirected from one
// too), bytes.Reader, strings.Reader — are range-split across workers
// with no producer in the way; anything else (a pipe, a FIFO) falls
// back to a bounded single-reader producer feeding worker-owned block
// buffers. Both paths yield the same aggregate, bit for bit, for any
// worker count.
func Scan(r io.Reader, opts Options) (*maillog.Aggregate, error) {
	type sizedReaderAt interface {
		io.ReaderAt
		Size() int64
	}
	switch v := r.(type) {
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return ScanReaderAt(v, fi.Size(), opts)
		}
	case sizedReaderAt:
		return ScanReaderAt(v, v.Size(), opts)
	}
	return scanStream(r, opts)
}

// ScanFile opens one log and scans it: a regular file is range-split
// across the configured workers, anything else (a FIFO, /dev/stdin, a
// shell process substitution) is streamed.
func ScanFile(path string, opts Options) (*maillog.Aggregate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Scan(f, opts)
}

// ScanReaderAt splits [0,size) into worker-count byte ranges and scans
// them concurrently. Range boundaries are arbitrary byte offsets; each
// worker owns exactly the lines that START inside its range (skipping
// the partial head line, finishing a line that runs past its end), so
// every line is decoded exactly once no matter where the cuts land.
func ScanReaderAt(r io.ReaderAt, size int64, opts Options) (*maillog.Aggregate, error) {
	nw := opts.workers()
	if maxw := int(size / minRangeBytes); nw > maxw {
		nw = max(1, maxw)
	}

	shards := make([]*tally, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		start := size * int64(i) / int64(nw)
		end := size * int64(i+1) / int64(nw)
		t := newTally(&opts)
		shards[i] = t
		wg.Add(1)
		go func(i int, start, end int64) {
			defer wg.Done()
			errs[i] = scanRange(r, start, end, size, t)
			t.flush()
		}(i, start, end)
	}
	wg.Wait()

	agg := maillog.NewAggregate()
	for _, t := range shards {
		agg.Merge(t.agg)
	}
	for _, err := range errs {
		if err != nil {
			return agg, err
		}
	}
	return agg, nil
}

// scanRange processes every line starting in [start,end) of r, reading
// past end as needed to complete the final line. size is the total
// input length (the section reader must be allowed to run to it).
func scanRange(r io.ReaderAt, start, end, size int64, t *tally) error {
	br := bufio.NewReaderSize(io.NewSectionReader(r, start, size-start), MaxLineLen)
	pos := start
	d := NewDecoder()
	d.SkipMsgID = true
	var e maillog.Event

	// A mid-file range usually starts inside some line owned by the
	// previous worker: discard through its newline. The exception is a
	// cut landing exactly on a line start (the preceding byte is a
	// newline) — that line is ours. If the straddling line is oversized
	// the previous worker still owns (and counts) it — the discard here
	// must not tally anything.
	if start > 0 {
		var prev [1]byte
		if _, err := r.ReadAt(prev[:], start-1); err != nil {
			return fmt.Errorf("logscan: read error at byte %d: %w", start-1, err)
		}
		for prev[0] != '\n' {
			skipped, err := br.ReadSlice('\n')
			pos += int64(len(skipped))
			if err == bufio.ErrBufferFull {
				continue
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("logscan: read error at byte %d: %w", pos, err)
			}
			break
		}
	}

	for pos < end {
		lineStart := pos
		chunk, err := br.ReadSlice('\n')
		pos += int64(len(chunk))
		if err == bufio.ErrBufferFull {
			// Oversized line owned by this range: count once, discard
			// through its newline (which may lie past end).
			for err == bufio.ErrBufferFull {
				var skipped []byte
				skipped, err = br.ReadSlice('\n')
				pos += int64(len(skipped))
			}
			t.oversized(pos - lineStart)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("logscan: read error at byte %d: %w", pos, err)
			}
			continue
		}
		t.line(d, &e, chunk)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("logscan: read error at byte %d: %w", pos, err)
		}
	}
	return nil
}

// scanStream is the non-seekable fallback: one producer frames lines
// into worker-owned block buffers; workers decode and fold into shard
// aggregates. The producer does only framing and memcpy, so it feeds
// several parse workers before becoming the bottleneck.
func scanStream(r io.Reader, opts Options) (*maillog.Aggregate, error) {
	nw := opts.workers()
	const blockSize = 1 << 20

	work := make(chan []byte, nw)
	free := make(chan []byte, 2*nw)
	for i := 0; i < 2*nw; i++ {
		free <- make([]byte, 0, blockSize)
	}

	shards := make([]*tally, nw)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		t := newTally(&opts)
		shards[i] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewDecoder()
			d.SkipMsgID = true
			var e maillog.Event
			for buf := range work {
				// Recycle buf, not the walked slice: that ends with
				// no capacity left.
				for block := buf; len(block) > 0; {
					nl := bytes.IndexByte(block, '\n')
					if nl < 0 {
						t.line(d, &e, block)
						break
					}
					t.line(d, &e, block[:nl+1])
					block = block[nl+1:]
				}
				free <- buf[:0]
			}
			t.flush()
		}()
	}

	// Producer: frame complete lines into blocks. The tally here counts
	// only oversized lines the workers never see.
	prodTally := newTally(&opts)
	br := bufio.NewReaderSize(r, MaxLineLen)
	var perr error
	block := (<-free)[:0]
	ship := func() {
		if len(block) > 0 {
			work <- block
			block = (<-free)[:0]
		}
	}
	for {
		lineLen := int64(0)
		chunk, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			for err == bufio.ErrBufferFull {
				lineLen += int64(len(chunk))
				chunk, err = br.ReadSlice('\n')
			}
			lineLen += int64(len(chunk))
			prodTally.oversized(lineLen)
			if err == io.EOF {
				break
			}
			if err != nil {
				perr = err
				break
			}
			continue
		}
		if len(block)+len(chunk) > cap(block) {
			ship()
		}
		block = append(block, chunk...)
		if err == io.EOF {
			break
		}
		if err != nil {
			perr = err
			break
		}
	}
	ship()
	close(work)
	wg.Wait()
	prodTally.flush()

	agg := maillog.NewAggregate()
	agg.Merge(prodTally.agg)
	for _, t := range shards {
		agg.Merge(t.agg)
	}
	if perr != nil {
		return agg, fmt.Errorf("logscan: read error after line %d: %w", agg.Lines, perr)
	}
	return agg, nil
}
