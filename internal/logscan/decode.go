// Package logscan is the measurement pipeline at paper scale: a
// parallel, zero-allocation streaming analyzer for the decision logs
// maillog emits. The paper's numbers come from crawling six months of
// daily logs — roughly 90M emails across 47 companies — so the crawler
// has to run at I/O speed, not at strings.Fields-plus-map-per-line
// speed. This package is the decode/aggregate mirror image of the
// zero-alloc encoder maillog.AppendFormat: a byte-slicing line decoder
// with string interning, a chunked scanner that splits a file across
// workers on newline boundaries, and a deterministic shard merge that
// yields the same maillog.Aggregate for any worker count.
package logscan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"time"

	"repro/internal/maillog"
)

// Decode errors. They are preallocated so the bad-line path of a scan
// allocates nothing; callers wanting context wrap them with position.
var (
	// ErrShortLine: fewer than the three mandatory tokens
	// (timestamp, company, kind).
	ErrShortLine = errors.New("logscan: short line")
	// ErrBadTimestamp: first token is not a valid
	// "2006-01-02T15:04:05Z" instant.
	ErrBadTimestamp = errors.New("logscan: bad timestamp")
	// ErrBadField: a field token without '='.
	ErrBadField = errors.New("logscan: bad field")
)

// Interner limits: values longer than maxInternLen or past the entry
// cap are returned as fresh strings instead of being retained, so a
// hostile log cannot balloon the table.
const (
	maxInternLen     = 64
	maxInternEntries = 1 << 16
)

// Decoder decodes log lines from byte slices without allocating. It
// interns company names, kinds, field keys and small field values in a
// bounded table, so the strings an Event carries are shared across the
// millions of lines that repeat them and the amortized decode cost is
// ~0 allocations per event. A Decoder is NOT safe for concurrent use —
// the parallel scanner gives each worker its own.
type Decoder struct {
	// SkipMsgID leaves Event.MsgID empty instead of materializing a
	// string for it. Message IDs are unique per event — the one field
	// interning cannot help — and the Aggregate never reads them, so
	// aggregation-only scans set this to stay allocation-free.
	SkipMsgID bool

	strs map[string]string

	// The last company token and its interned string: a log's lines
	// come in runs from one installation, so most lines repeat it.
	lastCo string

	// The last timestamp token that passed parseTimestamp and the time
	// it decoded to. Log lines arrive in time order and most share
	// their second with the line before, so a byte-identical token
	// skips the parse; any other token is parsed and validated afresh.
	lastTS [20]byte
	lastT  time.Time
	haveTS bool
}

// NewDecoder returns a Decoder with an empty intern table.
func NewDecoder() *Decoder {
	return &Decoder{strs: make(map[string]string, 256)}
}

// intern returns a string equal to b, shared across calls for small
// repeated tokens. The map index with a string(b) key compiles to a
// no-allocation lookup; only a miss pays for the string copy.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(b) <= maxInternLen && len(d.strs) < maxInternEntries {
		d.strs[s] = s
	}
	return s
}

// asciiSpace mirrors the ASCII half of strings.Fields' separator set,
// which is all a log line can contain (values may not contain spaces).
// A table lookup is one load where a compare chain is six branches.
var asciiSpace = [256]bool{' ': true, '\t': true, '\r': true, '\v': true, '\f': true, '\n': true}

// nextToken returns the first token of buf and the remainder after it.
// An empty token means buf held only whitespace.
//
// The token's end is found eight bytes at a time: every separator is
// below 0x21, and (w - 0x21*lo8) &^ w & hi8 flags the bytes of w below
// 0x21. Borrows only run upward, so the lowest flagged byte is exactly
// the first such byte; a control byte that is not a separator is
// stepped over and the search goes on.
func nextToken(buf []byte) (tok, rest []byte) {
	i := 0
	for i < len(buf) && asciiSpace[buf[i]] {
		i++
	}
	j := i
	for j+8 <= len(buf) {
		w := binary.LittleEndian.Uint64(buf[j:])
		m := (w - 0x21*lo8) &^ w & hi8
		if m == 0 {
			j += 8
			continue
		}
		k := j + bits.TrailingZeros64(m)/8
		if asciiSpace[buf[k]] {
			return buf[i:k], buf[k:]
		}
		j = k + 1
	}
	for j < len(buf) && !asciiSpace[buf[j]] {
		j++
	}
	return buf[i:j], buf[j:]
}

// Byte-lane constants for nextToken's eight-at-a-time search.
const (
	lo8 = 0x0101010101010101
	hi8 = 0x8080808080808080
)

// ParseLineBytes parses one log line into e, overwriting it completely.
// It is the decoder for the format maillog.Event.AppendFormat writes:
// the input is tokenized by slicing buf in place, the Event's inline
// pairs are filled first (the same machinery AppendFormat encodes
// from), and every string except the per-event message ID comes from
// the intern table. buf is not retained; it may be a reused read
// buffer.
func (d *Decoder) ParseLineBytes(buf []byte, e *maillog.Event) error {
	*e = maillog.Event{}
	ts, rest := nextToken(buf)
	co, rest := nextToken(rest)
	kind, rest := nextToken(rest)
	if len(kind) == 0 {
		return ErrShortLine
	}
	t, ok := d.timestamp(ts)
	if !ok {
		return ErrBadTimestamp
	}
	e.Time = t
	if string(co) != d.lastCo {
		d.lastCo = d.intern(co)
	}
	e.Company = d.lastCo
	e.Kind = maillog.Kind(d.intern(kind))
	for {
		var tok []byte
		tok, rest = nextToken(rest)
		if len(tok) == 0 {
			return nil
		}
		eq := bytes.IndexByte(tok, '=')
		if eq < 0 {
			return ErrBadField
		}
		k, v := tok[:eq], tok[eq+1:]
		if string(k) == "msg" {
			if !d.SkipMsgID {
				e.MsgID = string(v)
			}
			continue
		}
		e.AddField(d.intern(k), d.intern(v))
	}
}

// timestamp is parseTimestamp behind a one-entry memo: a token equal
// to the last one that parsed returns its time without re-parsing.
func (d *Decoder) timestamp(b []byte) (time.Time, bool) {
	if d.haveTS && string(b) == string(d.lastTS[:]) {
		return d.lastT, true
	}
	t, ok := parseTimestamp(b)
	if ok {
		copy(d.lastTS[:], b)
		d.lastT, d.haveTS = t, true
	}
	return t, ok
}

// parseTimestamp decodes the fixed "2006-01-02T15:04:05Z" layout
// without time.Parse's allocations. It accepts exactly what time.Parse
// accepts for that layout: correct separators, in-range components, and
// calendar-valid dates (Feb 30 is rejected, not normalized).
func parseTimestamp(b []byte) (time.Time, bool) {
	if len(b) != 20 ||
		b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[19] != 'Z' {
		return time.Time{}, false
	}
	dig := func(i int) (int, bool) {
		c := b[i] - '0'
		return int(c), c <= 9
	}
	num := func(i, width int) (int, bool) {
		n := 0
		for k := i; k < i+width; k++ {
			d, ok := dig(k)
			if !ok {
				return 0, false
			}
			n = n*10 + d
		}
		return n, true
	}
	year, ok1 := num(0, 4)
	month, ok2 := num(5, 2)
	day, ok3 := num(8, 2)
	hour, ok4 := num(11, 2)
	minute, ok5 := num(14, 2)
	sec, ok6 := num(17, 2)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return time.Time{}, false
	}
	if month < 1 || month > 12 || day < 1 || day > 31 || hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	t := time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC)
	// time.Date normalizes out-of-range days (Feb 30 -> Mar 2);
	// time.Parse rejects them. Reject likewise so a bad line is exactly
	// what time.Parse would call one.
	if t.Day() != day || t.Month() != time.Month(month) || t.Year() != year {
		return time.Time{}, false
	}
	return t, true
}
