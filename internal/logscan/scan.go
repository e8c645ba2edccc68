package logscan

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/maillog"
)

// MaxLineLen is the longest log line a scan decodes.
// A longer line is counted as one bad line and skipped through its
// newline, so a hostile or corrupt log costs a bounded buffer and never
// aborts the crawl.
const MaxLineLen = 1024 * 1024

// flushEvery is how many events a worker folds locally before flushing
// into the shared progress counters. Coarse enough to keep the atomics
// off the per-line path, fine enough for a 5-second progress ticker.
const flushEvery = 8192

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

// Scan aggregates a decision-log stream in parallel: one producer reads
// the input straight into worker-owned blocks, each cut at its last
// newline; workers decode and fold into shard aggregates. The producer
// copies only the partial line after a block's last newline into the
// next block, so it feeds several parse workers before becoming the
// bottleneck. Every input — a regular file, stdin, a pipe, a FIFO —
// takes this one path, and the aggregate is the same, bit for bit, for
// any worker count.
func Scan(r io.Reader, opts Options) (*maillog.Aggregate, error) {
	nw := opts.workers()

	// A block is MaxLineLen bytes, so a line within the bound always
	// fits the block it starts, and one that fills a block without a
	// newline is past the bound. The producer fills one block while each
	// worker decodes one; filling is far cheaper than decoding, so more
	// blocks would only add resident memory.
	work := make(chan []byte, nw)
	free := make(chan []byte, nw+1)
	for i := 0; i < nw+1; i++ {
		free <- make([]byte, 0, MaxLineLen)
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

	// Producer: fill a block, ship it through its last newline and start
	// the next block with the partial line after it. Its tally counts
	// only the oversized lines the workers never see.
	prodTally := newTally(&opts)
	var perr error
	block := <-free
	skipped := int64(-1) // bytes of an oversized line skipped so far; -1 when not skipping
	for {
		n, err := io.ReadFull(r, block[len(block):cap(block)])
		block = block[:len(block)+n]
		if skipped >= 0 {
			if nl := bytes.IndexByte(block, '\n'); nl >= 0 {
				prodTally.oversized(skipped + int64(nl+1))
				skipped = -1
				block = block[:copy(block, block[nl+1:])]
			} else {
				skipped += int64(len(block))
				block = block[:0]
			}
		}
		if err != nil {
			if skipped >= 0 {
				prodTally.oversized(skipped)
			}
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				perr = err
			}
			break
		}
		if len(block) < cap(block) {
			continue // refilling after an oversized line
		}
		nl := bytes.LastIndexByte(block, '\n')
		if nl < 0 {
			// A full block with no newline: a line past MaxLineLen,
			// counted once and skipped through its newline.
			skipped = int64(len(block))
			block = block[:0]
			continue
		}
		next := <-free
		next = append(next, block[nl+1:]...)
		work <- block[:nl+1]
		block = next
	}
	if len(block) > 0 {
		work <- block
	}
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

// ScanFile opens one log and scans it.
func ScanFile(path string, opts Options) (*maillog.Aggregate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Scan(f, opts)
}

// ScanReaderAt scans the first size bytes of r. Its only caller is the
// benchmark's logscan probe (benchmark/layers/batch.go), and it goes
// together with that probe's range-split rows (ROADMAP item 2).
func ScanReaderAt(r io.ReaderAt, size int64, opts Options) (*maillog.Aggregate, error) {
	return Scan(io.NewSectionReader(r, 0, size), opts)
}
