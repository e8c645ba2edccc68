// Package spool is the outbound challenge queue's state: a fold of the
// WAL's spool records, and the only per-challenge state the queue
// keeps. The queue journals every state transition (enqueue / attempt
// / sent / bounced / expired) through a Recorder, which appends the
// record and folds it into the State in one step, so the State is
// always exactly the fold of the journalled record sequence — which is
// what lets store.Recover rebuild the pending spool after a crash and
// the crash-restart experiment compare it byte-identical against a
// shadow fold.
//
// The package deliberately knows nothing about SMTP or scheduling;
// internal/outbound owns the delivery mechanics, takes each flush's
// candidates from State.Pending (its MaxQueued oldest) and drives a
// Recorder, and store snapshots carry State.Export().
package spool

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/mail"
	"repro/internal/wal"
)

// Status is the lifecycle state of a spool item (outbound.Status is an
// alias). The labels are part of the snapshot format.
type Status int

const (
	// StatusQueued: journalled, not yet handed to the smarthost.
	StatusQueued Status = iota
	// StatusSent: accepted by the smarthost.
	StatusSent
	// StatusBounced: permanently rejected.
	StatusBounced
	// StatusExpired: retry schedule exhausted.
	StatusExpired
)

// String returns the status label used in snapshots and reports.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusSent:
		return "sent"
	case StatusBounced:
		return "bounced"
	case StatusExpired:
		return "expired"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// parseStatus is String's inverse for snapshot import.
func parseStatus(s string) (Status, bool) {
	switch s {
	case "queued":
		return StatusQueued, true
	case "sent":
		return StatusSent, true
	case "bounced":
		return StatusBounced, true
	case "expired":
		return StatusExpired, true
	}
	return 0, false
}

// Challenge is the durable description of one outbound challenge —
// everything needed to re-render and deliver it after a restart.
type Challenge struct {
	MsgID   string
	Token   string
	From    mail.Address
	To      mail.Address
	Subject string
	URL     string
	Size    int
	Issued  time.Time
}

// Item is one spool entry.
type Item struct {
	Challenge Challenge
	Status    Status
	Attempts  int
	LastClass string
	LastError string
	NextTry   time.Time
	// LSN of the last record applied to this item; replaying a WAL
	// suffix over a snapshot re-applies only records past it.
	LSN uint64
}

// record is one pending item as a State keeps it: 112 bytes against an
// Item's 240. What its challenge shares with the State's other items
// (the sender, the URL up to the token, the size) is a shape index; its
// URL is rebuilt from the token; its times are Unix nanoseconds; and a
// pending item's status is always StatusQueued. Its retry state costs a
// pointer until its first failed attempt.
type record struct {
	msgID   string
	token   string
	to      mail.Address
	subject string
	issued  int64 // see unixNanos
	lsn     uint64
	retry   *retry
	shape   uint32 // index into State.shapes
	zone    int32  // issued's UTC offset, see unixNanos
}

// retry is a pending item's state after a failed attempt.
type retry struct {
	class    string
	err      string
	nextTry  int64 // see unixNanos
	attempts int
	zone     int32 // nextTry's UTC offset
}

// shapeKey is what a challenge shares with the others of its State: in
// crserver, one value for every challenge.
type shapeKey struct {
	from mail.Address
	// prefix is the URL up to the token; or, when whole, the URL itself,
	// which does not end in the token.
	prefix string
	whole  bool
	size   int
}

// url returns the URL of the challenge with token.
func (k *shapeKey) url(token string) string {
	if k.whole {
		return k.prefix
	}
	return k.prefix + token
}

// shape is one distinct shapeKey of a State with the number of pending
// items that use it; a slot with no users is reused.
type shape struct {
	key  shapeKey
	refs int
}

// doneItem is the terminal fate of an item. Terminal items stay in the
// done map (not the pending map) so replaying their records over a
// snapshot that already contains them is a no-op rather than a
// resurrection or a double count.
type doneItem struct {
	Status   Status
	Attempts int
	LSN      uint64
}

// State is the fold of the spool's journalled record sequence. Safe
// for concurrent use.
type State struct {
	mu      sync.Mutex
	pending map[string]*record
	done    map[string]doneItem
	// doneBy counts done by status, so DoneCounts reads four numbers
	// however many challenges have reached their fate.
	doneBy [StatusExpired + 1]int
	// shapes holds each distinct shapeKey of the pending items once, and
	// shapeAt finds its slot; free lists the slots no item uses.
	shapes  []shape
	shapeAt map[shapeKey]uint32
	free    []uint32
}

// NewState returns an empty State.
func NewState() *State {
	return &State{pending: make(map[string]*record), done: make(map[string]doneItem), shapeAt: make(map[shapeKey]uint32)}
}

// acquireShapeLocked returns the slot of ch's shape, adding it if no
// pending item uses it, and counts one more user.
func (s *State) acquireShapeLocked(ch *Challenge) uint32 {
	k := shapeKey{from: ch.From, size: ch.Size}
	if p, ok := strings.CutSuffix(ch.URL, ch.Token); ok {
		k.prefix = p
	} else {
		k.prefix, k.whole = ch.URL, true
	}
	i, ok := s.shapeAt[k]
	if !ok {
		if n := len(s.free); n > 0 {
			i, s.free = s.free[n-1], s.free[:n-1]
			s.shapes[i] = shape{key: k}
		} else {
			i = uint32(len(s.shapes))
			s.shapes = append(s.shapes, shape{key: k})
		}
		s.shapeAt[k] = i
	}
	s.shapes[i].refs++
	return i
}

// releaseShapeLocked counts one user of shape slot i fewer, freeing the
// slot when it has none.
func (s *State) releaseShapeLocked(i uint32) {
	sh := &s.shapes[i]
	if sh.refs--; sh.refs == 0 {
		delete(s.shapeAt, sh.key)
		*sh = shape{}
		s.free = append(s.free, i)
	}
}

// newRecordLocked returns ch as a record with the given retry state.
func (s *State) newRecordLocked(ch *Challenge, rt *retry, lsn uint64) *record {
	issued, zone := unixNanos(ch.Issued)
	return &record{
		msgID:   ch.MsgID,
		token:   ch.Token,
		to:      ch.To,
		subject: ch.Subject,
		issued:  issued,
		zone:    zone,
		lsn:     lsn,
		retry:   rt,
		shape:   s.acquireShapeLocked(ch),
	}
}

// newRetry returns the retry state of an attempt, or nil for one that
// carries none.
func newRetry(class, lastErr string, attempts int, nextTry time.Time) *retry {
	if class == "" && lastErr == "" && attempts == 0 && nextTry.IsZero() {
		return nil
	}
	next, zone := unixNanos(nextTry)
	return &retry{class: class, err: lastErr, nextTry: next, attempts: attempts, zone: zone}
}

// itemLocked returns r as an Item. Callers must hold s.mu.
func (s *State) itemLocked(r *record) Item {
	k := &s.shapes[r.shape].key
	it := Item{
		Challenge: Challenge{
			MsgID:   r.msgID,
			Token:   r.token,
			From:    k.from,
			To:      r.to,
			Subject: r.subject,
			URL:     k.url(r.token),
			Size:    k.size,
			Issued:  fromUnixNanos(r.issued, r.zone),
		},
		Status: StatusQueued,
		LSN:    r.lsn,
	}
	if rt := r.retry; rt != nil {
		it.Attempts = rt.attempts
		it.LastClass = rt.class
		it.LastError = rt.err
		it.NextTry = fromUnixNanos(rt.nextTry, rt.zone)
	}
	return it
}

// unixZero is unixNanos' value for the zero Time.
const unixZero = math.MinInt64

// unixNanos stores t as its Unix nanoseconds, saturated to the int64
// range so the zero Time (year 1) is unixZero, and the UTC offset in
// seconds it reads with.
func unixNanos(t time.Time) (int64, int32) {
	_, off := t.Zone()
	switch {
	case t.Before(minNanos):
		return unixZero, int32(off)
	case t.After(maxNanos):
		return math.MaxInt64, int32(off)
	}
	return t.UnixNano(), int32(off)
}

// The instants an int64 of Unix nanoseconds can hold (1677 to 2262).
var (
	minNanos = time.Unix(0, math.MinInt64)
	maxNanos = time.Unix(0, math.MaxInt64)
)

// fromUnixNanos is unixNanos' inverse. It reads offset 0 as UTC, the
// Local zone's offset at that instant as Local, and any other as a
// fixed zone: the locations a snapshot's JSON parses to, so a time
// reads back Equal and with the same JSON text it went in with.
func fromUnixNanos(ns int64, off int32) time.Time {
	var t time.Time
	if ns != unixZero {
		t = time.Unix(0, ns)
		if _, local := t.Zone(); off != 0 && int32(local) == off {
			return t
		}
	}
	if off == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", int(off)))
}

// guardLocked reports whether a record with lsn should be applied to msgID.
// LSN 0 (journal dropped or disabled) is unguarded and always applies.
func (s *State) guardLocked(msgID string, lsn uint64) bool {
	if lsn == 0 {
		return true
	}
	if d, ok := s.done[msgID]; ok && d.LSN >= lsn {
		return false
	}
	if r, ok := s.pending[msgID]; ok && r.lsn >= lsn {
		return false
	}
	return true
}

// applyEnqueue admits ch into the pending spool. Idempotent: an item
// already pending or terminal is left alone.
func (s *State) applyEnqueue(ch Challenge, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.done[ch.MsgID]; ok {
		return
	}
	if _, ok := s.pending[ch.MsgID]; ok {
		return
	}
	s.pending[ch.MsgID] = s.newRecordLocked(&ch, nil, lsn)
}

// applyAttempt records a non-terminal delivery attempt.
func (s *State) applyAttempt(msgID, class, lastErr string, attempts int, nextTry time.Time, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.guardLocked(msgID, lsn) {
		return
	}
	r, ok := s.pending[msgID]
	if !ok {
		return
	}
	r.retry = newRetry(class, lastErr, attempts, nextTry)
	if lsn > r.lsn {
		r.lsn = lsn
	}
}

// applyTerminal moves an item to its terminal fate.
func (s *State) applyTerminal(msgID string, st Status, attempts int, lsn uint64) {
	if st == StatusQueued {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.guardLocked(msgID, lsn) {
		return
	}
	if r, ok := s.pending[msgID]; ok {
		delete(s.pending, msgID)
		s.releaseShapeLocked(r.shape)
	}
	if d, ok := s.done[msgID]; ok {
		s.doneBy[d.Status]--
	}
	s.done[msgID] = doneItem{Status: st, Attempts: attempts, LSN: lsn}
	s.doneBy[st]++
}

// before reports whether a is delivered before b: by issue time, then
// message ID.
func before(a, b *record) bool {
	if a.issued != b.issued {
		return a.issued < b.issued
	}
	return a.msgID < b.msgID
}

// lastFirst is a heap of records whose root is the one delivered last.
type lastFirst []*record

func (h lastFirst) Len() int           { return len(h) }
func (h lastFirst) Less(i, j int) bool { return before(h[j], h[i]) }
func (h lastFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *lastFirst) Push(x any)        { *h = append(*h, x.(*record)) }
func (h *lastFirst) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

// Pending returns the limit first queued items in delivery order (issue
// time, then message ID), leaving out the items skip reports true for,
// given the domain of the item's destination and its next retry time
// (nil skips none); limit <= 0 returns them all. skip runs under the
// state's lock and must not take another. One pass over the pending
// items keeps the limit first in a heap, so only the returned items are
// built.
func (s *State) Pending(limit int, skip func(domain string, nextTry time.Time) bool) []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit <= 0 || limit > len(s.pending) {
		limit = len(s.pending)
	}
	h := make(lastFirst, 0, limit)
	for _, r := range s.pending {
		if skip != nil {
			var next time.Time
			if r.retry != nil {
				next = fromUnixNanos(r.retry.nextTry, r.retry.zone)
			}
			if skip(r.to.Domain, next) {
				continue
			}
		}
		if len(h) < limit {
			heap.Push(&h, r)
		} else if before(r, h[0]) {
			h[0] = r
			heap.Fix(&h, 0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return before(h[i], h[j]) })
	out := make([]Item, len(h))
	for i, r := range h {
		out[i] = s.itemLocked(r)
	}
	return out
}

// PendingByDomain counts the pending items per destination domain.
func (s *State) PendingByDomain() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for _, r := range s.pending {
		out[r.to.Domain]++
	}
	return out
}

// Len returns the number of pending items.
func (s *State) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// DoneCounts tallies terminal fates by status.
func (s *State) DoneCounts() map[Status]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Status]int)
	for st, n := range s.doneBy {
		if n > 0 {
			out[Status(st)] = n
		}
	}
	return out
}

// exportedItem is one pending spool entry in snapshot form.
type exportedItem struct {
	MsgID     string    `json:"msg_id"`
	Token     string    `json:"token"`
	From      string    `json:"from"`
	To        string    `json:"to"`
	Subject   string    `json:"subject,omitempty"`
	URL       string    `json:"url,omitempty"`
	Size      int       `json:"size,omitempty"`
	Issued    time.Time `json:"issued"`
	Attempts  int       `json:"attempts,omitempty"`
	LastClass string    `json:"last_class,omitempty"`
	LastError string    `json:"last_error,omitempty"`
	NextTry   time.Time `json:"next_try"`
	LSN       uint64    `json:"lsn,omitempty"`
}

// exportedDone is one terminal fate in snapshot form.
type exportedDone struct {
	MsgID    string `json:"msg_id"`
	Status   string `json:"status"`
	Attempts int    `json:"attempts,omitempty"`
	LSN      uint64 `json:"lsn,omitempty"`
}

// ExportedState is the snapshot form of a State: the pending spool
// plus the terminal fates (kept for idempotent replay), both in
// message-ID order so exports are deterministic and comparable.
type ExportedState struct {
	Pending []exportedItem `json:"pending,omitempty"`
	Done    []exportedDone `json:"done,omitempty"`
}

// Export returns the deterministic snapshot form of s.
func (s *State) Export() ExportedState {
	s.mu.Lock()
	out := ExportedState{}
	for _, r := range s.pending {
		it := s.itemLocked(r)
		ch := &it.Challenge
		out.Pending = append(out.Pending, exportedItem{
			MsgID:     ch.MsgID,
			Token:     ch.Token,
			From:      ch.From.String(),
			To:        ch.To.String(),
			Subject:   ch.Subject,
			URL:       ch.URL,
			Size:      ch.Size,
			Issued:    ch.Issued,
			Attempts:  it.Attempts,
			LastClass: it.LastClass,
			LastError: it.LastError,
			NextTry:   it.NextTry,
			LSN:       it.LSN,
		})
	}
	for id, d := range s.done {
		out.Done = append(out.Done, exportedDone{MsgID: id, Status: d.Status.String(), Attempts: d.Attempts, LSN: d.LSN})
	}
	s.mu.Unlock()
	sort.Slice(out.Pending, func(i, j int) bool { return out.Pending[i].MsgID < out.Pending[j].MsgID })
	sort.Slice(out.Done, func(i, j int) bool { return out.Done[i].MsgID < out.Done[j].MsgID })
	return out
}

// Import replaces s's contents with a previously exported state.
func (s *State) Import(e ExportedState) error {
	fresh := NewState()
	for _, x := range e.Pending {
		from, err := mail.ParseAddress(x.From)
		if err != nil {
			return fmt.Errorf("spool: pending %s from %q: %v", x.MsgID, x.From, err)
		}
		to, err := mail.ParseAddress(x.To)
		if err != nil {
			return fmt.Errorf("spool: pending %s to %q: %v", x.MsgID, x.To, err)
		}
		ch := Challenge{
			MsgID:   x.MsgID,
			Token:   x.Token,
			From:    from,
			To:      to,
			Subject: x.Subject,
			URL:     x.URL,
			Size:    x.Size,
			Issued:  x.Issued,
		}
		if old, ok := fresh.pending[x.MsgID]; ok {
			fresh.releaseShapeLocked(old.shape)
		}
		fresh.pending[x.MsgID] = fresh.newRecordLocked(&ch, newRetry(x.LastClass, x.LastError, x.Attempts, x.NextTry), x.LSN)
	}
	for _, x := range e.Done {
		st, ok := parseStatus(x.Status)
		if !ok {
			return fmt.Errorf("spool: done %s has unknown status %q", x.MsgID, x.Status)
		}
		if d, ok := fresh.done[x.MsgID]; ok {
			fresh.doneBy[d.Status]--
		}
		fresh.done[x.MsgID] = doneItem{Status: st, Attempts: x.Attempts, LSN: x.LSN}
		fresh.doneBy[st]++
	}
	s.mu.Lock()
	s.pending, s.done, s.doneBy = fresh.pending, fresh.done, fresh.doneBy
	s.shapes, s.shapeAt, s.free = fresh.shapes, fresh.shapeAt, fresh.free
	s.mu.Unlock()
	return nil
}

// enqueueBlob carries the challenge fields that do not fit the fixed
// Record columns. It rides in Record.Blob as JSON.
type enqueueBlob struct {
	Token   string `json:"token"`
	From    string `json:"from"`
	Subject string `json:"subject,omitempty"`
	URL     string `json:"url,omitempty"`
}

// EnqueueRecord encodes an enqueue transition.
func EnqueueRecord(at time.Time, ch Challenge) wal.Record {
	blob, _ := json.Marshal(enqueueBlob{Token: ch.Token, From: ch.From.String(), Subject: ch.Subject, URL: ch.URL})
	return wal.Record{
		Time:   at,
		Op:     wal.OpSpoolEnqueue,
		Origin: "enqueue",
		User:   ch.MsgID,
		Sender: ch.To.String(),
		Value:  int64(ch.Size),
		Aux:    ch.Issued.UnixNano(),
		Blob:   string(blob),
	}
}

// attemptRecord encodes a non-terminal attempt transition.
func attemptRecord(at time.Time, msgID, class, lastErr string, attempts int, nextTry time.Time) wal.Record {
	r := wal.Record{
		Time:   at,
		Op:     wal.OpSpoolAttempt,
		Origin: class,
		User:   msgID,
		Value:  int64(attempts),
		Blob:   lastErr,
	}
	if !nextTry.IsZero() {
		r.Aux = nextTry.UnixNano()
	}
	return r
}

// terminalRecord encodes a sent/bounced/expired transition.
func terminalRecord(at time.Time, msgID string, st Status, class, lastErr string, attempts int) wal.Record {
	r := wal.Record{Time: at, User: msgID, Origin: class, Value: int64(attempts), Blob: lastErr}
	switch st {
	case StatusSent:
		r.Op = wal.OpSpoolSent
	case StatusBounced:
		r.Op = wal.OpSpoolBounced
	case StatusExpired:
		r.Op = wal.OpSpoolExpired
	}
	return r
}

// Apply folds one WAL record into s (WAL replay and the crash
// experiment's shadow fold). Records of other stores are ignored.
func (s *State) Apply(r wal.Record) error {
	switch r.Op {
	case wal.OpSpoolEnqueue:
		var b enqueueBlob
		if err := json.Unmarshal([]byte(r.Blob), &b); err != nil {
			return fmt.Errorf("spool: record %d blob: %v", r.LSN, err)
		}
		from, err := mail.ParseAddress(b.From)
		if err != nil {
			return fmt.Errorf("spool: record %d from %q: %v", r.LSN, b.From, err)
		}
		to, err := mail.ParseAddress(r.Sender)
		if err != nil {
			return fmt.Errorf("spool: record %d to %q: %v", r.LSN, r.Sender, err)
		}
		s.applyEnqueue(Challenge{
			MsgID:   r.User,
			Token:   b.Token,
			From:    from,
			To:      to,
			Subject: b.Subject,
			URL:     b.URL,
			Size:    int(r.Value),
			Issued:  time.Unix(0, r.Aux).UTC(),
		}, r.LSN)
	case wal.OpSpoolAttempt:
		var next time.Time
		if r.Aux != 0 {
			next = time.Unix(0, r.Aux).UTC()
		}
		s.applyAttempt(r.User, r.Origin, r.Blob, int(r.Value), next, r.LSN)
	case wal.OpSpoolSent:
		s.applyTerminal(r.User, StatusSent, int(r.Value), r.LSN)
	case wal.OpSpoolBounced:
		s.applyTerminal(r.User, StatusBounced, int(r.Value), r.LSN)
	case wal.OpSpoolExpired:
		s.applyTerminal(r.User, StatusExpired, int(r.Value), r.LSN)
	}
	return nil
}

// Recorder journals spool transitions and applies them to a State in
// one step, so the in-memory fold can never diverge from the record
// sequence a recovery would replay. Emit is the journal sink
// (wal.Journal.Emit); nil runs the spool in memory only. Like the
// store hooks, journalling is fail-open: a dropped append (Emit
// returning 0) still applies the transition, with an unguarded LSN.
type Recorder struct {
	State *State
	Emit  func(wal.Record) uint64

	mu      sync.Mutex
	dropped int
}

// Dropped returns how many transitions were journalled as LSN 0.
func (rc *Recorder) Dropped() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.dropped
}

// emit appends r if the journal is enabled.
func (rc *Recorder) emit(r wal.Record) uint64 {
	if rc.Emit == nil {
		return 0
	}
	lsn := rc.Emit(r)
	if lsn == 0 {
		rc.mu.Lock()
		rc.dropped++
		rc.mu.Unlock()
	}
	return lsn
}

// Enqueue journals and applies an enqueue transition.
func (rc *Recorder) Enqueue(at time.Time, ch Challenge) {
	lsn := rc.emit(EnqueueRecord(at, ch))
	rc.State.applyEnqueue(ch, lsn)
}

// Attempt journals and applies a non-terminal attempt transition.
func (rc *Recorder) Attempt(at time.Time, msgID, class, lastErr string, attempts int, nextTry time.Time) {
	lsn := rc.emit(attemptRecord(at, msgID, class, lastErr, attempts, nextTry))
	rc.State.applyAttempt(msgID, class, lastErr, attempts, nextTry, lsn)
}

// Terminal journals and applies a sent/bounced/expired transition.
func (rc *Recorder) Terminal(at time.Time, msgID string, st Status, class, lastErr string, attempts int) {
	lsn := rc.emit(terminalRecord(at, msgID, st, class, lastErr, attempts))
	rc.State.applyTerminal(msgID, st, attempts, lsn)
}
