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
	"sort"
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
	pending map[string]*Item
	done    map[string]doneItem
	// doneBy counts done by status, so DoneCounts reads four numbers
	// however many challenges have reached their fate.
	doneBy [StatusExpired + 1]int
}

// NewState returns an empty State.
func NewState() *State {
	return &State{pending: make(map[string]*Item), done: make(map[string]doneItem)}
}

// guard reports whether a record with lsn should be applied to msgID.
// LSN 0 (journal dropped or disabled) is unguarded and always applies.
func (s *State) guardLocked(msgID string, lsn uint64) bool {
	if lsn == 0 {
		return true
	}
	if d, ok := s.done[msgID]; ok && d.LSN >= lsn {
		return false
	}
	if it, ok := s.pending[msgID]; ok && it.LSN >= lsn {
		return false
	}
	return true
}

// ApplyEnqueue admits ch into the pending spool. Idempotent: an item
// already pending or terminal is left alone.
func (s *State) ApplyEnqueue(ch Challenge, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.done[ch.MsgID]; ok {
		return
	}
	if _, ok := s.pending[ch.MsgID]; ok {
		return
	}
	s.pending[ch.MsgID] = &Item{Challenge: ch, Status: StatusQueued, LSN: lsn}
}

// ApplyAttempt records a non-terminal delivery attempt.
func (s *State) ApplyAttempt(msgID, class, lastErr string, attempts int, nextTry time.Time, lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.guardLocked(msgID, lsn) {
		return
	}
	it, ok := s.pending[msgID]
	if !ok {
		return
	}
	it.Attempts = attempts
	it.LastClass = class
	it.LastError = lastErr
	it.NextTry = nextTry
	if lsn > it.LSN {
		it.LSN = lsn
	}
}

// ApplyTerminal moves an item to its terminal fate.
func (s *State) ApplyTerminal(msgID string, st Status, attempts int, lsn uint64) {
	if st == StatusQueued {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.guardLocked(msgID, lsn) {
		return
	}
	delete(s.pending, msgID)
	if d, ok := s.done[msgID]; ok {
		s.doneBy[d.Status]--
	}
	s.done[msgID] = doneItem{Status: st, Attempts: attempts, LSN: lsn}
	s.doneBy[st]++
}

// before reports whether a is delivered before b: by issue time, then
// message ID.
func before(a, b *Item) bool {
	if !a.Challenge.Issued.Equal(b.Challenge.Issued) {
		return a.Challenge.Issued.Before(b.Challenge.Issued)
	}
	return a.Challenge.MsgID < b.Challenge.MsgID
}

// lastFirst is a heap of items whose root is the one delivered last.
type lastFirst []*Item

func (h lastFirst) Len() int           { return len(h) }
func (h lastFirst) Less(i, j int) bool { return before(h[j], h[i]) }
func (h lastFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *lastFirst) Push(x any)        { *h = append(*h, x.(*Item)) }
func (h *lastFirst) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Pending returns copies of the limit first queued items in delivery
// order (issue time, then message ID), leaving out the items skip
// reports true for (nil skips none); limit <= 0 returns them all. skip
// runs under the state's lock and must not take another. One pass over
// the pending items keeps the limit first in a heap, so only the
// returned items are copied.
func (s *State) Pending(limit int, skip func(*Item) bool) []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit <= 0 || limit > len(s.pending) {
		limit = len(s.pending)
	}
	h := make(lastFirst, 0, limit)
	for _, it := range s.pending {
		if skip != nil && skip(it) {
			continue
		}
		if len(h) < limit {
			heap.Push(&h, it)
		} else if before(it, h[0]) {
			h[0] = it
			heap.Fix(&h, 0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return before(h[i], h[j]) })
	out := make([]Item, len(h))
	for i, it := range h {
		out[i] = *it
	}
	return out
}

// PendingByDomain counts the pending items per destination domain.
func (s *State) PendingByDomain() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for _, it := range s.pending {
		out[it.Challenge.To.Domain]++
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

// ExportedItem is one pending spool entry in snapshot form.
type ExportedItem struct {
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

// ExportedDone is one terminal fate in snapshot form.
type ExportedDone struct {
	MsgID    string `json:"msg_id"`
	Status   string `json:"status"`
	Attempts int    `json:"attempts,omitempty"`
	LSN      uint64 `json:"lsn,omitempty"`
}

// ExportedState is the snapshot form of a State: the pending spool
// plus the terminal fates (kept for idempotent replay), both in
// message-ID order so exports are deterministic and comparable.
type ExportedState struct {
	Pending []ExportedItem `json:"pending,omitempty"`
	Done    []ExportedDone `json:"done,omitempty"`
}

// Export returns the deterministic snapshot form of s.
func (s *State) Export() ExportedState {
	s.mu.Lock()
	out := ExportedState{}
	for _, it := range s.pending {
		out.Pending = append(out.Pending, ExportedItem{
			MsgID:     it.Challenge.MsgID,
			Token:     it.Challenge.Token,
			From:      it.Challenge.From.String(),
			To:        it.Challenge.To.String(),
			Subject:   it.Challenge.Subject,
			URL:       it.Challenge.URL,
			Size:      it.Challenge.Size,
			Issued:    it.Challenge.Issued,
			Attempts:  it.Attempts,
			LastClass: it.LastClass,
			LastError: it.LastError,
			NextTry:   it.NextTry,
			LSN:       it.LSN,
		})
	}
	for id, d := range s.done {
		out.Done = append(out.Done, ExportedDone{MsgID: id, Status: d.Status.String(), Attempts: d.Attempts, LSN: d.LSN})
	}
	s.mu.Unlock()
	sort.Slice(out.Pending, func(i, j int) bool { return out.Pending[i].MsgID < out.Pending[j].MsgID })
	sort.Slice(out.Done, func(i, j int) bool { return out.Done[i].MsgID < out.Done[j].MsgID })
	return out
}

// Import replaces s's contents with a previously exported state.
func (s *State) Import(e ExportedState) error {
	pending := make(map[string]*Item, len(e.Pending))
	done := make(map[string]doneItem, len(e.Done))
	var doneBy [StatusExpired + 1]int
	for _, x := range e.Pending {
		from, err := mail.ParseAddress(x.From)
		if err != nil {
			return fmt.Errorf("spool: pending %s from %q: %v", x.MsgID, x.From, err)
		}
		to, err := mail.ParseAddress(x.To)
		if err != nil {
			return fmt.Errorf("spool: pending %s to %q: %v", x.MsgID, x.To, err)
		}
		pending[x.MsgID] = &Item{
			Challenge: Challenge{
				MsgID:   x.MsgID,
				Token:   x.Token,
				From:    from,
				To:      to,
				Subject: x.Subject,
				URL:     x.URL,
				Size:    x.Size,
				Issued:  x.Issued,
			},
			Status:    StatusQueued,
			Attempts:  x.Attempts,
			LastClass: x.LastClass,
			LastError: x.LastError,
			NextTry:   x.NextTry,
			LSN:       x.LSN,
		}
	}
	for _, x := range e.Done {
		st, ok := parseStatus(x.Status)
		if !ok {
			return fmt.Errorf("spool: done %s has unknown status %q", x.MsgID, x.Status)
		}
		if d, ok := done[x.MsgID]; ok {
			doneBy[d.Status]--
		}
		done[x.MsgID] = doneItem{Status: st, Attempts: x.Attempts, LSN: x.LSN}
		doneBy[st]++
	}
	s.mu.Lock()
	s.pending = pending
	s.done = done
	s.doneBy = doneBy
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

// AttemptRecord encodes a non-terminal attempt transition.
func AttemptRecord(at time.Time, msgID, class, lastErr string, attempts int, nextTry time.Time) wal.Record {
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

// TerminalRecord encodes a sent/bounced/expired transition.
func TerminalRecord(at time.Time, msgID string, st Status, class, lastErr string, attempts int) wal.Record {
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
		s.ApplyEnqueue(Challenge{
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
		s.ApplyAttempt(r.User, r.Origin, r.Blob, int(r.Value), next, r.LSN)
	case wal.OpSpoolSent:
		s.ApplyTerminal(r.User, StatusSent, int(r.Value), r.LSN)
	case wal.OpSpoolBounced:
		s.ApplyTerminal(r.User, StatusBounced, int(r.Value), r.LSN)
	case wal.OpSpoolExpired:
		s.ApplyTerminal(r.User, StatusExpired, int(r.Value), r.LSN)
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
	rc.State.ApplyEnqueue(ch, lsn)
}

// Attempt journals and applies a non-terminal attempt transition.
func (rc *Recorder) Attempt(at time.Time, msgID, class, lastErr string, attempts int, nextTry time.Time) {
	lsn := rc.emit(AttemptRecord(at, msgID, class, lastErr, attempts, nextTry))
	rc.State.ApplyAttempt(msgID, class, lastErr, attempts, nextTry, lsn)
}

// Terminal journals and applies a sent/bounced/expired transition.
func (rc *Recorder) Terminal(at time.Time, msgID string, st Status, class, lastErr string, attempts int) {
	lsn := rc.emit(TerminalRecord(at, msgID, st, class, lastErr, attempts))
	rc.State.ApplyTerminal(msgID, st, attempts, lsn)
}
