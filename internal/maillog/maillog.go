// Package maillog implements the emit half of the measurement
// methodology of the paper's §2: the authors never had live access to
// the CR engines — they parsed the MTAs' and challenge engines' daily
// logs plus the web server's access logs, loaded the extracted events
// into Postgres and aggregated from there.
//
// This package renders the engine's decision points as structured log
// lines (one event per line, syslog-flavoured key=value) and defines the
// Aggregate that reconstructs the paper's statistics from those lines
// alone. Package logscan decodes the lines and folds them into an
// Aggregate; the tests hold that log-derived aggregate to the engines'
// in-process counters, which is exactly the consistency check the
// original methodology depends on.
package maillog

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"time"
)

// Kind enumerates the event types the log carries.
type Kind string

// Event kinds, mirroring the log sources of §2: MTA-IN decisions,
// dispatcher decisions, challenge engine actions, and the challenge web
// server's access log.
const (
	// KindMTAAccept: the MTA-IN accepted a message.
	KindMTAAccept Kind = "mta-accept"
	// KindMTADrop: the MTA-IN dropped a message (reason attached).
	KindMTADrop Kind = "mta-drop"
	// KindDispatch: the dispatcher routed a message (spool attached).
	KindDispatch Kind = "dispatch"
	// KindFilterDrop: an auxiliary filter dropped a gray message.
	KindFilterDrop Kind = "filter-drop"
	// KindChallenge: a challenge email was sent.
	KindChallenge Kind = "challenge"
	// KindDeliver: a message reached a user's inbox (via attached).
	KindDeliver Kind = "deliver"
	// KindWebVisit: the challenge URL was opened (web access log).
	KindWebVisit Kind = "web-visit"
	// KindWebSolve: the CAPTCHA was solved (web access log).
	KindWebSolve Kind = "web-solve"
	// KindDegraded: a dependency was unavailable and a component fell
	// back to its degradation policy (fields: component, mode, action).
	KindDegraded Kind = "degraded"
	// KindReputation: the sender-reputation store decided a gray
	// message's path (fields: action, band, score, keys) — action
	// "fast-path" when a trusted sender skipped the probe filters,
	// "suspect" when the reputation stage dropped the message. Every
	// bypass is logged; reporting tooling can always explain why a
	// message never reached the probe chain.
	KindReputation Kind = "reputation"
	// KindOverload: the admission controller shed a message (fields:
	// reason, queue). Shed mail is tempfailed (SMTP 421/451), never
	// dropped, so these events account for time-shifted — not lost —
	// deliveries.
	KindOverload Kind = "overload"
	// KindBounce: an inbound DSN reported a challenge undeliverable
	// (fields: class, status, domain — the bounce classification, the
	// enhanced status code and the destination domain the challenge
	// could not reach). The §5.1 challenge-fate statistics aggregate
	// these.
	KindBounce Kind = "bounce"
	// KindLoopSuppressed: a gray message carried an Auto-Submitted
	// header (RFC 3834) — another CR system's challenge or some other
	// autoresponder — and was quarantined without a counter-challenge
	// to break the CR-to-CR challenge loop (fields: from, auto).
	KindLoopSuppressed Kind = "loop-suppressed"
)

// maxInlinePairs is the number of key/value pairs an Event carries
// without allocating. Every engine emit site uses at most four.
const maxInlinePairs = 4

// Event is one structured log record.
//
// Field storage has two forms. Events built by struct-literal
// construction carry a Fields map. Events built with MakeEvent or
// AddField — the emit and parse hot paths — carry up to maxInlinePairs
// key/value pairs inline and allocate nothing; additional pairs overflow
// into the map. Readers should use Field/FieldMap, which consult both.
type Event struct {
	Time    time.Time
	Company string
	Kind    Kind
	MsgID   string
	// Fields carries kind-specific attributes (reason, spool, via,
	// filter, from, size...). Values must not contain spaces or '='.
	// May be nil for events built by MakeEvent; use Field or FieldMap
	// instead of indexing it directly.
	Fields map[string]string

	npairs int
	pairs  [maxInlinePairs][2]string
}

// MakeEvent builds an Event from alternating key/value pairs without
// allocating (for up to maxInlinePairs pairs — beyond that the rest
// spill into a Fields map). A trailing odd key is ignored.
func MakeEvent(t time.Time, company string, kind Kind, msgID string, kvs ...string) Event {
	e := Event{Time: t, Company: company, Kind: kind, MsgID: msgID}
	for i := 0; i+1 < len(kvs); i += 2 {
		if e.npairs < maxInlinePairs {
			e.pairs[e.npairs] = [2]string{kvs[i], kvs[i+1]}
			e.npairs++
			continue
		}
		if e.Fields == nil {
			e.Fields = make(map[string]string)
		}
		e.Fields[kvs[i]] = kvs[i+1]
	}
	return e
}

// AddField sets one field, preferring the inline pairs and spilling
// into the Fields map only past their capacity. A repeated key
// overwrites the earlier value (map semantics), so parse order never
// duplicates a field. It is the mutating counterpart of MakeEvent for
// decoders that fill a reused Event in place.
func (e *Event) AddField(k, v string) {
	for i := 0; i < e.npairs; i++ {
		if e.pairs[i][0] == k {
			e.pairs[i][1] = v
			return
		}
	}
	if e.Fields != nil {
		if _, ok := e.Fields[k]; ok {
			e.Fields[k] = v
			return
		}
	}
	if e.npairs < maxInlinePairs {
		e.pairs[e.npairs] = [2]string{k, v}
		e.npairs++
		return
	}
	if e.Fields == nil {
		e.Fields = make(map[string]string)
	}
	e.Fields[k] = v
}

// Field returns the value of the named field from either storage form,
// or "" if absent.
func (e Event) Field(k string) string {
	for i := 0; i < e.npairs; i++ {
		if e.pairs[i][0] == k {
			return e.pairs[i][1]
		}
	}
	return e.Fields[k]
}

// NumFields returns the number of fields the event carries.
func (e Event) NumFields() int { return e.npairs + len(e.Fields) }

// FieldMap materialises all fields as a fresh map (allocates; for tests
// and debugging, not the hot path).
func (e Event) FieldMap() map[string]string {
	m := make(map[string]string, e.NumFields())
	for k, v := range e.Fields {
		m[k] = v
	}
	for i := 0; i < e.npairs; i++ {
		m[e.pairs[i][0]] = e.pairs[i][1]
	}
	return m
}

// Format renders the event as a single log line:
//
//	2010-07-01T10:00:00Z company-03 mta-drop msg=abc reason=unknown-recipient
func (e Event) Format() string {
	return string(e.AppendFormat(nil))
}

// AppendFormat appends the formatted log line (no trailing newline) to
// dst and returns the extended slice. It is the append-based encoder
// behind Format, Writer and Emitter: with a pre-sized dst it performs no
// allocations, and its output is byte-for-byte identical to the
// historical fmt/strings.Builder rendering — field keys sorted
// ascending, single spaces, "msg=" first when MsgID is set.
func (e Event) AppendFormat(dst []byte) []byte {
	dst = appendTime(dst, e.Time.UTC())
	dst = append(dst, ' ')
	dst = append(dst, e.Company...)
	dst = append(dst, ' ')
	dst = append(dst, e.Kind...)
	if e.MsgID != "" {
		dst = append(dst, " msg="...)
		dst = append(dst, e.MsgID...)
	}
	// Sort the keys. The inline pairs alone need no allocation; a
	// populated overflow map falls back to a small sorted key slice.
	if len(e.Fields) == 0 {
		// Insertion-sort the (at most maxInlinePairs) inline pairs.
		var keys [maxInlinePairs][2]string
		n := e.npairs
		copy(keys[:], e.pairs[:n])
		for i := 1; i < n; i++ {
			for j := i; j > 0 && keys[j][0] < keys[j-1][0]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		for i := 0; i < n; i++ {
			dst = append(dst, ' ')
			dst = append(dst, keys[i][0]...)
			dst = append(dst, '=')
			dst = append(dst, keys[i][1]...)
		}
		return dst
	}
	keys := make([]string, 0, e.NumFields())
	for k := range e.Fields {
		keys = append(keys, k)
	}
	for i := 0; i < e.npairs; i++ {
		keys = append(keys, e.pairs[i][0])
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = append(dst, ' ')
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = append(dst, e.Field(k)...)
	}
	return dst
}

// appendTime renders t as "2006-01-02T15:04:05Z" (RFC 3339 without a
// zone: logs are UTC by convention) without the allocation time.Format
// makes.
func appendTime(dst []byte, t time.Time) []byte {
	year, month, day := t.Date()
	hour, minute, sec := t.Clock()
	dst = append4(dst, year)
	dst = append(dst, '-')
	dst = append2(dst, int(month))
	dst = append(dst, '-')
	dst = append2(dst, day)
	dst = append(dst, 'T')
	dst = append2(dst, hour)
	dst = append(dst, ':')
	dst = append2(dst, minute)
	dst = append(dst, ':')
	dst = append2(dst, sec)
	return append(dst, 'Z')
}

func append2(dst []byte, n int) []byte {
	return append(dst, byte('0'+n/10%10), byte('0'+n%10))
}

func append4(dst []byte, n int) []byte {
	return append(dst, byte('0'+n/1000%10), byte('0'+n/100%10), byte('0'+n/10%10), byte('0'+n%10))
}

// Writer serialises events to an io.Writer, one line each. It is not
// safe for concurrent use; wrap with a mutex or use one per goroutine.
type Writer struct {
	w   *bufio.Writer
	buf []byte // reused line-encoding buffer; amortises to zero allocs
	err error
	n   int64
}

// NewWriter returns a log writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// Write appends one event. Errors are sticky and reported by Flush.
func (lw *Writer) Write(e Event) {
	if lw.err != nil {
		return
	}
	lw.buf = e.AppendFormat(lw.buf[:0])
	lw.buf = append(lw.buf, '\n')
	if _, err := lw.w.Write(lw.buf); err != nil {
		lw.err = err
		return
	}
	lw.n++
}

// Count returns the number of events written.
func (lw *Writer) Count() int64 { return lw.n }

// Flush drains the buffer and returns the first error encountered.
func (lw *Writer) Flush() error {
	if lw.err != nil {
		return lw.err
	}
	return lw.w.Flush()
}

// Aggregate is the statistic set the paper's Python scripts computed
// from the parsed logs, sufficient to derive Figure 1/2/3, the
// reflection ratio and the solve rates.
type Aggregate struct {
	// Per company; "" keys the fleet-wide total.
	ByCompany map[string]*CompanyAggregate
	// Lines and parse failures, for data-quality reporting.
	Lines    int64
	BadLines int64
}

// CompanyAggregate accumulates one installation's counters.
type CompanyAggregate struct {
	Incoming    int64
	MTADrops    map[string]int64 // by reason
	Spools      map[string]int64 // white / black / gray
	FilterDrops map[string]int64 // by filter name
	Challenges  int64
	Deliveries  map[string]int64 // by via
	WebVisits   int64
	WebSolves   int64
	InBytes     int64
	Degraded    map[string]int64 // degraded-mode fallbacks, by component
	Reputation  map[string]int64 // reputation decisions, by action
	Overload    map[string]int64 // admission sheds, by reason
	// Bounces counts challenge bounces by DSN class (no-user,
	// no-domain, blocklisted, expired, other); LoopSuppressed counts
	// gray messages quarantined without a challenge because they were
	// themselves auto-submitted.
	Bounces        map[string]int64
	LoopSuppressed int64
}

func newCompanyAggregate() *CompanyAggregate {
	return &CompanyAggregate{
		MTADrops:    make(map[string]int64),
		Spools:      make(map[string]int64),
		FilterDrops: make(map[string]int64),
		Deliveries:  make(map[string]int64),
		Degraded:    make(map[string]int64),
		Reputation:  make(map[string]int64),
		Overload:    make(map[string]int64),
		Bounces:     make(map[string]int64),
	}
}

// ReflectionRatio returns challenges / messages reaching the dispatcher.
func (c *CompanyAggregate) ReflectionRatio() float64 {
	var reaching int64
	for _, v := range c.Spools {
		reaching += v
	}
	if reaching == 0 {
		return 0
	}
	return float64(c.Challenges) / float64(reaching)
}

// SolveRate returns web solves / challenges.
func (c *CompanyAggregate) SolveRate() float64 {
	if c.Challenges == 0 {
		return 0
	}
	return float64(c.WebSolves) / float64(c.Challenges)
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{ByCompany: make(map[string]*CompanyAggregate)}
}

// Add incorporates one event.
func (a *Aggregate) Add(e Event) {
	for _, key := range []string{e.Company, ""} {
		c := a.ByCompany[key]
		if c == nil {
			c = newCompanyAggregate()
			a.ByCompany[key] = c
		}
		switch e.Kind {
		case KindMTAAccept:
			c.Incoming++
			if s, err := strconv.ParseInt(e.Field("size"), 10, 64); err == nil {
				c.InBytes += s
			}
		case KindMTADrop:
			c.Incoming++
			c.MTADrops[e.Field("reason")]++
			if s, err := strconv.ParseInt(e.Field("size"), 10, 64); err == nil {
				c.InBytes += s
			}
		case KindDispatch:
			c.Spools[e.Field("spool")]++
		case KindFilterDrop:
			c.FilterDrops[e.Field("filter")]++
		case KindChallenge:
			c.Challenges++
		case KindDeliver:
			c.Deliveries[e.Field("via")]++
		case KindWebVisit:
			c.WebVisits++
		case KindWebSolve:
			c.WebSolves++
		case KindDegraded:
			c.Degraded[e.Field("component")]++
		case KindReputation:
			c.Reputation[e.Field("action")]++
		case KindOverload:
			c.Overload[e.Field("reason")]++
		case KindBounce:
			c.Bounces[e.Field("class")]++
		case KindLoopSuppressed:
			c.LoopSuppressed++
		}
	}
}

// Merge folds another aggregate into a, summing every counter. It is
// the reduction step of the parallel log scanner: each worker folds its
// byte range into a shard-local aggregate and the shards are merged
// afterwards. Addition is commutative and associative, so the merged
// result is identical for any worker count or merge order. b is left
// untouched.
func (a *Aggregate) Merge(b *Aggregate) {
	if b == nil {
		return
	}
	a.Lines += b.Lines
	a.BadLines += b.BadLines
	for name, cb := range b.ByCompany {
		ca := a.ByCompany[name]
		if ca == nil {
			ca = newCompanyAggregate()
			a.ByCompany[name] = ca
		}
		ca.Merge(cb)
	}
}

// Merge folds another company's counters into c, leaving o untouched.
func (c *CompanyAggregate) Merge(o *CompanyAggregate) {
	if o == nil {
		return
	}
	c.Incoming += o.Incoming
	c.Challenges += o.Challenges
	c.WebVisits += o.WebVisits
	c.WebSolves += o.WebSolves
	c.InBytes += o.InBytes
	c.LoopSuppressed += o.LoopSuppressed
	mergeCounts(c.MTADrops, o.MTADrops)
	mergeCounts(c.Spools, o.Spools)
	mergeCounts(c.FilterDrops, o.FilterDrops)
	mergeCounts(c.Deliveries, o.Deliveries)
	mergeCounts(c.Degraded, o.Degraded)
	mergeCounts(c.Reputation, o.Reputation)
	mergeCounts(c.Overload, o.Overload)
	mergeCounts(c.Bounces, o.Bounces)
}

func mergeCounts(dst, src map[string]int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// Total returns the fleet-wide aggregate.
func (a *Aggregate) Total() *CompanyAggregate {
	if c := a.ByCompany[""]; c != nil {
		return c
	}
	return newCompanyAggregate()
}

// Companies returns the company names present, sorted.
func (a *Aggregate) Companies() []string {
	out := make([]string, 0, len(a.ByCompany))
	for k := range a.ByCompany {
		if k != "" {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
