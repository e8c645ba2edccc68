package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/smtp"
	"repro/internal/wal"
)

// spanName identifies a layer boundary the traced run wraps. Every one
// is a seam the product already exposes — an interface or a function
// value handed to a constructor — so no file outside benchmark/ is
// instrumented.
type spanName uint8

const (
	spValidateSender   spanName = iota // smtp.Backend.ValidateSender (gateway → core.CheckMTAIn)
	spValidateRcpt                     // smtp.Backend.ValidateRcpt
	spDeliver                          // smtp.Backend.Deliver (gateway → overload → core.Receive)
	spResolve                          // dnssim.Resolver in front of the engine (the dnscache)
	spRBLQuery                         // filters.RBLBackend (the dnscache RBL cache)
	spFilterReputation                 // filters.Filter, first of the chain
	spFilterAntivirus
	spFilterRBL
	spSendChallenge // core.ChallengeSender (outbound.Queue.Enqueue and its journal append)
	spJournal       // outbound.Config.Journal (wal.Journal.Emit)
	spInbox         // the engine's inbox sink (mailbox.Store)
	spFlush         // outbound.Queue.FlushAll, called by the replay after the load
	spDial          // outbound.Config.Dial
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"gateway.validate_sender", "gateway.validate_rcpt", "gateway.deliver",
	"dnscache.lookup", "dnscache.rbl_lookup",
	"filters.reputation", "filters.antivirus", "filters.rbl",
	"outbound.enqueue", "wal.journal_emit", "mailbox.sink",
	"outbound.flush", "outbound.dial",
}

// span is one timed call: which transaction it belongs to, the span
// that caused it (-1 for a root), and when it ran, in nanoseconds since
// the tracer's epoch.
type span struct {
	trace      uint32
	name       spanName
	parent     int32
	start, end int64
}

// tracer keeps spans in memory allocated before the run and writes them
// out when the run ends. The traced replay uses a single connection, so
// at any moment one goroutine is inside the product on behalf of one
// transaction and the open spans form a stack: the top of the stack is
// the parent of the next span. The mutex only orders the hand-over
// between successive session goroutines.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	stack   []int32
	trace   uint32
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), stack: make([]int32, 0, 16)}
}

// begin opens a span under the innermost open one. newTrace starts the
// next transaction's trace: MAIL FROM is the first thing a transaction
// does to the backend.
func (t *tracer) begin(name spanName, newTrace bool) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if newTrace {
		t.trace++
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{trace: t.trace, name: name, parent: parent, start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].end = now
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		if top == i {
			break
		}
	}
	t.mu.Unlock()
}

// spanStat sums one span name: calls, total time, and self time — the
// duration minus the part its child spans cover.
type spanStat struct {
	count         int
	total, selfNs int64
}

func (s spanStat) meanTotal() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count)
}

func (s spanStat) meanSelf() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.selfNs) / float64(s.count)
}

func (t *tracer) stats() [numSpanNames]spanStat {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	var out [numSpanNames]spanStat
	for i, s := range t.spans {
		st := &out[s.name]
		st.count++
		st.total += s.end - s.start
		st.selfNs += s.end - s.start - children[i]
	}
	return out
}

// write dumps the run as JSON: the per-name summary, then every span as
// [trace, name index, parent index, start ns, end ns].
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"traces\":%d,\"dropped_spans\":%d,\n\"names\":[", workload, seed, t.trace, t.dropped)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"summary\":{")
	first := true
	for i, st := range t.stats() {
		if st.count == 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n %q:{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}", spanNames[i], st.count, st.total, st.selfNs)
	}
	w.WriteString("},\n\"spans\":[")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", s.trace, s.name, s.parent, s.start, s.end)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The wrappers. Each forwards to the product's own implementation and
// records one span around the call.

type tracedBackend struct {
	inner smtp.Backend
	t     *tracer
}

func (b tracedBackend) ValidateSender(from mail.Address) *smtp.Reply {
	defer b.t.end(b.t.begin(spValidateSender, true))
	return b.inner.ValidateSender(from)
}

func (b tracedBackend) ValidateRcpt(from, rcpt mail.Address) *smtp.Reply {
	defer b.t.end(b.t.begin(spValidateRcpt, false))
	return b.inner.ValidateRcpt(from, rcpt)
}

func (b tracedBackend) Deliver(msg *mail.Message) *smtp.Reply {
	defer b.t.end(b.t.begin(spDeliver, false))
	return b.inner.Deliver(msg)
}

// cachingResolver is what the engine sees of the dnscache: the four
// record lookups plus the combined resolvability probe it prefers.
type cachingResolver interface {
	dnssim.Resolver
	ResolvableErr(domain string) (bool, error)
}

type tracedResolver struct {
	inner cachingResolver
	t     *tracer
}

func (r tracedResolver) LookupA(host string) ([]string, error) {
	defer r.t.end(r.t.begin(spResolve, false))
	return r.inner.LookupA(host)
}

func (r tracedResolver) LookupMX(domain string) ([]dnssim.MX, error) {
	defer r.t.end(r.t.begin(spResolve, false))
	return r.inner.LookupMX(domain)
}

func (r tracedResolver) LookupPTR(ip string) (string, error) {
	defer r.t.end(r.t.begin(spResolve, false))
	return r.inner.LookupPTR(ip)
}

func (r tracedResolver) LookupTXT(domain string) ([]string, error) {
	defer r.t.end(r.t.begin(spResolve, false))
	return r.inner.LookupTXT(domain)
}

func (r tracedResolver) ResolvableErr(domain string) (bool, error) {
	defer r.t.end(r.t.begin(spResolve, false))
	return r.inner.ResolvableErr(domain)
}

type tracedRBL struct {
	inner filters.RBLBackend
	t     *tracer
}

func (r tracedRBL) Name() string { return r.inner.Name() }

func (r tracedRBL) Query(ip string) (bool, error) {
	defer r.t.end(r.t.begin(spRBLQuery, false))
	return r.inner.Query(ip)
}

type tracedFilter struct {
	inner filters.Filter
	name  spanName
	t     *tracer
}

func (f tracedFilter) Name() string { return f.inner.Name() }

func (f tracedFilter) Check(msg *mail.Message) filters.Result {
	defer f.t.end(f.t.begin(f.name, false))
	return f.inner.Check(msg)
}

func tracedSender(inner core.ChallengeSender, t *tracer) core.ChallengeSender {
	return func(ch core.OutboundChallenge) {
		defer t.end(t.begin(spSendChallenge, false))
		inner(ch)
	}
}

func tracedJournal(inner func(wal.Record) uint64, t *tracer) func(wal.Record) uint64 {
	return func(r wal.Record) uint64 {
		defer t.end(t.begin(spJournal, false))
		return inner(r)
	}
}

func tracedInbox(inner func(core.Delivery, *mail.Message), t *tracer) func(core.Delivery, *mail.Message) {
	return func(d core.Delivery, m *mail.Message) {
		defer t.end(t.begin(spInbox, false))
		inner(d, m)
	}
}

func tracedDial(inner func() (*smtp.Client, error), t *tracer) func() (*smtp.Client, error) {
	return func() (*smtp.Client, error) {
		defer t.end(t.begin(spDial, false))
		return inner()
	}
}
