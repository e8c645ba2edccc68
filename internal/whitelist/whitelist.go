// Package whitelist implements the per-user sender white- and blacklists
// that are the foundation of the challenge-response approach.
//
// The paper's product supports four ways an address enters a whitelist
// (§2 "Whitelisting process"): the sender solves a challenge, the user
// authorizes the sender from the daily digest, the user adds the address
// manually, or the user previously sent mail to that address. Each entry
// records its source and timestamp so the §4.3 change-rate analysis
// (Figure 9: distribution of new entries per 60 days) can be reproduced
// directly from the store.
package whitelist

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/wal"
)

// Source identifies how an entry was added to a list.
type Source int

// Whitelist entry sources (§2 of the paper).
const (
	// SourceChallenge: the sender solved the CAPTCHA challenge.
	SourceChallenge Source = iota
	// SourceDigest: the user authorized the sender from the daily digest.
	SourceDigest
	// SourceManual: the user imported the address by hand.
	SourceManual
	// SourceOutbound: the user sent a message to the address, which
	// implicitly whitelists it.
	SourceOutbound
	// SourceSeed: pre-existing entry from before the monitoring window
	// (the user's historical contact list).
	SourceSeed
)

// String returns a short label for the source.
func (s Source) String() string {
	switch s {
	case SourceChallenge:
		return "challenge"
	case SourceDigest:
		return "digest"
	case SourceManual:
		return "manual"
	case SourceOutbound:
		return "outbound"
	case SourceSeed:
		return "seed"
	default:
		return "unknown"
	}
}

// Entry is one sender address on a user's list.
type Entry struct {
	Addr   mail.Address
	Source Source
	Added  time.Time
}

// list is one user's whitelist (or blacklist). Not safe for concurrent
// use on its own; Store serialises access.
//
// The append-only log is the only copy of an entry; the paper counts
// additions, so a removal only flags the entry's record. slots is an
// open-addressed hash table over the log, keyed by the canonical sender
// (see mail.Address.Canonical), with linear probing over a power-of-two
// size that is kept at most three-quarters full. A slot is 0 when
// empty, else the sender's hash tag in its top 8 bits and the log
// position of the sender's latest record plus one in its low 24, so a
// probe reads the log only on a tag match and a membership check on the
// dispatch hot path allocates nothing. A re-added sender appends a
// record and repoints its slot; the slot count never exceeds the log's
// length, which is the load the table is sized for.
type list struct {
	log   []record
	slots []uint32
}

// record is one addition in a list's log: 48 bytes against the 64 of
// an Entry.
type record struct {
	addr    mail.Address // as added: the spelling Export returns
	added   int64        // Unix nanoseconds, see unixNanos
	source  uint8        // the entry's Source, see sourceByte
	removed bool         // removed from the list since it was added
}

const (
	posBits = 24
	posMask = 1<<posBits - 1
)

// maxRecords is the most records a list can hold: a slot addresses
// log positions 0 to 2^24-2. Tests lower it to reach the limit.
var maxRecords = posMask

// collide gives every sender the same hash, all ones: one tag, and one
// probe chain that starts at the table's last slot and wraps. Only
// tests set it.
var collide bool

// hashSeed keys hashAddr. It differs per process, so the table's layout
// does too; no output depends on the layout, since Export, the change
// counts and CountBySource walk the log.
var hashSeed = maphash.MakeSeed()

// hashAddr hashes the canonical sender sk.
func hashAddr(sk mail.Address) uint64 {
	if collide {
		return ^uint64(0)
	}
	return maphash.String(hashSeed, sk.Local) ^ maphash.String(hashSeed, sk.Domain)*0x9e3779b97f4a7c15
}

// tagOf is the slot tag of hash h: its top 8 bits, in the slot's.
func tagOf(h uint64) uint32 { return uint32(h>>56) << posBits }

// keyEquals reports whether a, as added, canonicalises to sk.
func keyEquals(a, sk mail.Address) bool {
	return a.Domain == sk.Domain && (a.Local == sk.Local || strings.ToLower(a.Local) == sk.Local)
}

// at returns the record slot value v points at.
func (l *list) at(v uint32) *record { return &l.log[v&posMask-1] }

// probe looks sk up: slot is the slot holding sk's latest record (hit)
// or the empty slot that ends sk's probe chain, -1 in an empty table.
func (l *list) probe(sk mail.Address, h uint64) (slot int, hit bool) {
	if len(l.slots) == 0 {
		return -1, false
	}
	mask := len(l.slots) - 1
	tag := tagOf(h)
	for i := int(h) & mask; ; i = (i + 1) & mask {
		v := l.slots[i]
		if v == 0 {
			return i, false
		}
		if v&^posMask == tag && keyEquals(l.at(v).addr, sk) {
			return i, true
		}
	}
}

// current returns the record sk's slot points at if it is still on the
// list, nil otherwise.
func (l *list) current(sk mail.Address) *record {
	i, hit := l.probe(sk, hashAddr(sk))
	if !hit {
		return nil
	}
	if r := l.at(l.slots[i]); !r.removed {
		return r
	}
	return nil
}

// has reports whether the canonical sender sk is on the list.
func (l *list) has(sk mail.Address) bool { return l.current(sk) != nil }

// add appends e to the log as the current entry of the canonical sender
// sk unless sk is already on the list (the existing entry wins), and
// reports whether it did. It panics rather than let a slot alias
// another record once the log holds maxRecords.
func (l *list) add(sk mail.Address, e Entry) bool {
	h := hashAddr(sk)
	i, hit := l.probe(sk, h)
	if hit && !l.at(l.slots[i]).removed {
		return false
	}
	if len(l.log) >= maxRecords {
		panic(fmt.Sprintf("whitelist: a list holds %d records, the most its slots address", len(l.log)))
	}
	if !hit && (i < 0 || 4*(len(l.log)+1) > 3*len(l.slots)) {
		l.resize(len(l.log) + 1)
		i, _ = l.probe(sk, h)
	}
	l.log = append(l.log, record{addr: e.Addr, added: unixNanos(e.Added), source: sourceByte(e.Source)})
	l.slots[i] = tagOf(h) | uint32(len(l.log))
	return true
}

// remove flags sk's current entry as removed and reports whether there
// was one.
func (l *list) remove(sk mail.Address) bool {
	r := l.current(sk)
	if r != nil {
		r.removed = true
	}
	return r != nil
}

// tableSize returns the smallest power-of-two slot count, at least 8,
// that holds n senders at most three-quarters full.
func tableSize(n int) int {
	size := 8
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// resize rebuilds the slot table for n senders. Only add calls it, so
// the table never changes under a reader's lock.
func (l *list) resize(n int) {
	old := l.slots
	l.slots = make([]uint32, tableSize(n))
	mask := len(l.slots) - 1
	for _, v := range old {
		if v == 0 {
			continue
		}
		h := hashAddr(l.at(v).addr.Canonical())
		i := int(h) & mask
		for l.slots[i] != 0 {
			i = (i + 1) & mask
		}
		l.slots[i] = v
	}
}

// reserve sizes an empty list for n entries.
func (l *list) reserve(n int) {
	if l.log == nil && n > 0 {
		l.log = make([]record, 0, n)
		l.slots = make([]uint32, tableSize(n))
	}
}

// entries returns the current entries sorted by addition time, then
// address; nil when there are none.
func (l *list) entries() []Entry {
	n := 0
	for i := range l.log {
		if !l.log[i].removed {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	for i := range l.log {
		if r := &l.log[i]; !r.removed {
			out = append(out, r.entry())
		}
	}
	slices.SortFunc(out, func(a, b Entry) int {
		if c := a.Added.Compare(b.Added); c != 0 {
			return c
		}
		return mail.CompareKeys(a.Addr, b.Addr)
	})
	return out
}

// entry returns r as an Entry.
func (r *record) entry() Entry {
	return Entry{Addr: r.addr, Source: Source(r.source), Added: fromUnixNanos(r.added)}
}

// sourceByte stores s in a record's byte; a source that does not fit
// (none of the defined ones) is kept as 255, which reads "unknown".
func sourceByte(s Source) uint8 {
	if s < 0 || s > 255 {
		return 255
	}
	return uint8(s)
}

// The instants an int64 of Unix nanoseconds can hold (1677 to 2262).
var (
	minNanos = time.Unix(0, math.MinInt64)
	maxNanos = time.Unix(0, math.MaxInt64)
)

// unixNanos stores t in a record: its Unix nanoseconds, saturated to
// the int64 range, so the zero Time (year 1) is math.MinInt64.
func unixNanos(t time.Time) int64 {
	switch {
	case t.Before(minNanos):
		return math.MinInt64
	case t.After(maxNanos):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// fromUnixNanos is unixNanos' inverse, in UTC: a simulated (UTC) time
// reads back unchanged, a real-clock one as the same instant in UTC.
// math.MinInt64 reads back as the zero Time.
func fromUnixNanos(n int64) time.Time {
	if n == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// account holds both of one user's lists, so a dispatch probes the
// user once.
type account struct {
	white, black list
}

// MutOp identifies the kind of list mutation carried by a Mutation.
type MutOp int

// List mutation kinds, journalled to the write-ahead log.
const (
	MutAddWhite MutOp = iota
	MutAddBlack
	MutRemoveWhite
)

// String returns a short label for the mutation kind.
func (o MutOp) String() string {
	switch o {
	case MutAddWhite:
		return "add-white"
	case MutAddBlack:
		return "add-black"
	case MutRemoveWhite:
		return "remove-white"
	default:
		return "unknown"
	}
}

// Mutation is one state change to a user's lists. For removals only
// Entry.Addr and Entry.Added (the removal time) are meaningful.
type Mutation struct {
	Op    MutOp
	User  mail.Address
	Entry Entry
}

// record encodes m as its WAL record. Origin and Value carry the entry
// source ("remove" and 0 for a removal).
func (m Mutation) record() wal.Record {
	r := wal.Record{
		Time:   m.Entry.Added,
		User:   m.User.String(),
		Sender: m.Entry.Addr.String(),
		Origin: m.Entry.Source.String(),
		Value:  int64(m.Entry.Source),
	}
	switch m.Op {
	case MutAddWhite:
		r.Op = wal.OpWhiteAdd
	case MutAddBlack:
		r.Op = wal.OpBlackAdd
	case MutRemoveWhite:
		r.Op = wal.OpWhiteRemove
		r.Origin, r.Value = "remove", 0
	}
	return r
}

// mutationOf decodes a list record; ok is false for any other op.
func mutationOf(r wal.Record) (m Mutation, ok bool, err error) {
	switch r.Op {
	case wal.OpWhiteAdd:
		m.Op = MutAddWhite
	case wal.OpBlackAdd:
		m.Op = MutAddBlack
	case wal.OpWhiteRemove:
		m.Op = MutRemoveWhite
	default:
		return m, false, nil
	}
	if m.User, err = mail.ParseAddress(r.User); err != nil {
		return m, false, fmt.Errorf("whitelist: record %d user %q: %v", r.LSN, r.User, err)
	}
	if m.Entry.Addr, err = mail.ParseAddress(r.Sender); err != nil {
		return m, false, fmt.Errorf("whitelist: record %d sender %q: %v", r.LSN, r.Sender, err)
	}
	m.Entry.Source, m.Entry.Added = Source(r.Value), r.Time
	return m, true, nil
}

// Store holds the white- and blacklists of every user of one company's
// installation. It is safe for concurrent use.
type Store struct {
	clk clock.Clock

	mu      sync.RWMutex
	users   map[mail.Address]*account // by canonical user address
	journal func(wal.Record) uint64
}

// NewStore returns an empty store using clk for entry timestamps.
func NewStore(clk clock.Clock) *Store {
	return &Store{clk: clk, users: make(map[mail.Address]*account)}
}

// SetJournal installs the change-journal hook. The hook is invoked with
// the store lock held, once per applied mutation, in apply order, with
// the mutation's WAL record; it must not call back into the store. The
// LSN it returns is not kept: list replay is idempotent without one. Replays via Apply and bulk Import
// are not journalled (they reconstruct state that is already durable).
func (s *Store) SetJournal(fn func(wal.Record) uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = fn
}

// Apply re-applies a journalled list record during WAL replay; records
// of other stores are ignored. Additions are insert-if-absent
// (replaying a mutation whose effect is already in the snapshot is a
// no-op), removals delete-if-present, so replaying any in-order suffix
// of the mutation history is idempotent.
func (s *Store) Apply(r wal.Record) error {
	m, ok, err := mutationOf(r)
	if !ok {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m.Op {
	case MutAddWhite:
		s.account(m.User).white.add(m.Entry.Addr.Canonical(), m.Entry)
	case MutAddBlack:
		s.account(m.User).black.add(m.Entry.Addr.Canonical(), m.Entry)
	case MutRemoveWhite:
		if a := s.users[m.User.Canonical()]; a != nil {
			a.white.remove(m.Entry.Addr.Canonical())
		}
	}
	return nil
}

// account returns user's account, creating it if absent.
func (s *Store) account(user mail.Address) *account {
	uk := user.Canonical()
	a := s.users[uk]
	if a == nil {
		a = new(account)
		s.users[uk] = a
	}
	return a
}

// AddWhite adds sender to user's whitelist with the given source. Adding
// an address that is already present is a no-op (the first source wins),
// matching the product's behaviour and keeping the change log an honest
// record of *new* entries for the Figure 9 churn statistics. It returns
// true if the entry was new.
func (s *Store) AddWhite(user, sender mail.Address, src Source) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.add(&s.account(user).white, MutAddWhite, user, sender, src)
}

// Reserve sizes user's empty lists for white and black entries, so a
// bulk load does not regrow them entry by entry. Like an addition, it
// gives user an account; lists that already hold entries are left as
// they are.
func (s *Store) Reserve(user mail.Address, white, black int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.account(user)
	a.white.reserve(white)
	a.black.reserve(black)
}

// AddBlack adds sender to user's blacklist. Returns true if new.
func (s *Store) AddBlack(user, sender mail.Address) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.add(&s.account(user).black, MutAddBlack, user, sender, SourceManual)
}

// add puts sender on l, one of user's lists, unless it is there, and
// journals the addition as op. The caller holds s.mu.
func (s *Store) add(l *list, op MutOp, user, sender mail.Address, src Source) bool {
	e := Entry{Addr: sender, Source: src, Added: s.clk.Now()}
	if !l.add(sender.Canonical(), e) {
		return false
	}
	if s.journal != nil {
		s.journal(Mutation{Op: op, User: user, Entry: e}.record())
	}
	return true
}

// RemoveWhite deletes sender from user's whitelist. Removals are not
// logged (the paper counts only new entries). Returns true if present.
func (s *Store) RemoveWhite(user, sender mail.Address) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.users[user.Canonical()]
	if a == nil {
		return false
	}
	if !a.white.remove(sender.Canonical()) {
		return false
	}
	if s.journal != nil {
		s.journal(Mutation{Op: MutRemoveWhite, User: user, Entry: Entry{Addr: sender, Added: s.clk.Now()}}.record())
	}
	return true
}

// Classify reports whether sender is on user's blacklist and whether it
// is on user's whitelist, with one user probe under one read lock. A
// sender can be on both; the caller decides which wins.
func (s *Store) Classify(user, sender mail.Address) (black, white bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a := s.users[user.Canonical()]
	if a == nil {
		return false, false
	}
	sk := sender.Canonical()
	return a.black.has(sk), a.white.has(sk)
}

// IsWhite reports whether sender is on user's whitelist.
func (s *Store) IsWhite(user, sender mail.Address) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a := s.users[user.Canonical()]
	return a != nil && a.white.has(sender.Canonical())
}

// AdditionsBetween returns the number of whitelist entries user gained in
// [from, to), optionally restricted to the given sources (none = all).
// SourceSeed entries are excluded unless explicitly requested: the paper
// measures churn "excluding new users".
func (s *Store) AdditionsBetween(user mail.Address, from, to time.Time, sources ...Source) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a := s.users[user.Canonical()]
	if a == nil {
		return 0
	}
	want := func(src Source) bool {
		if len(sources) == 0 {
			return src != SourceSeed
		}
		for _, w := range sources {
			if w == src {
				return true
			}
		}
		return false
	}
	lo, hi := unixNanos(from), unixNanos(to)
	n := 0
	for _, r := range a.white.log {
		if r.added >= lo && r.added < hi && want(Source(r.source)) {
			n++
		}
	}
	return n
}

// ExportedList is the serialisable form of one user's lists, used by the
// persistence layer (internal/store).
type ExportedList struct {
	User  string  `json:"user"`
	White []Entry `json:"white,omitempty"`
	Black []Entry `json:"black,omitempty"`
}

// Export returns every user's lists in a stable order (users sorted,
// entries sorted by addition time then address), suitable for snapshots.
func (s *Store) Export() []ExportedList {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ExportedList, 0, len(s.users))
	for u, a := range s.users {
		out = append(out, ExportedList{
			User:  u.Key(),
			White: a.white.entries(),
			Black: a.black.entries(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// Import merges exported lists into the store, preserving the original
// sources and timestamps. Existing entries win (Import never overwrites).
// Every user named gets an account, even one with empty lists.
func (s *Store) Import(lists []ExportedList) error {
	for _, l := range lists {
		user, err := mail.ParseAddress(l.User)
		if err != nil {
			return fmt.Errorf("whitelist: bad user %q: %v", l.User, err)
		}
		s.mu.Lock()
		a := s.account(user)
		for _, e := range l.White {
			a.white.add(e.Addr.Canonical(), e)
		}
		for _, e := range l.Black {
			a.black.add(e.Addr.Canonical(), e)
		}
		s.mu.Unlock()
	}
	return nil
}

// CountBySource tallies all whitelist additions (across users) per source.
func (s *Store) CountBySource() map[Source]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Source]int)
	for _, a := range s.users {
		for _, r := range a.white.log {
			out[Source(r.source)]++
		}
	}
	return out
}
