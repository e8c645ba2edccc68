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
	"sort"
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
// The append-only log is the only copy of an entry. index maps the
// canonical sender Address (see mail.Address.Canonical) to the log
// position of its current entry, so membership checks on the dispatch
// hot path need no key-string allocation. A removal drops the index
// entry and keeps the log: the paper counts additions only.
type list struct {
	log   []Entry                // change log (additions only), in apply order
	index map[mail.Address]int32 // canonical sender -> position in log
}

// has reports whether the canonical sender sk is on the list.
func (l *list) has(sk mail.Address) bool {
	_, ok := l.index[sk]
	return ok
}

// add appends e to the log as the current entry of the canonical
// sender sk.
func (l *list) add(sk mail.Address, e Entry) {
	if l.index == nil {
		l.index = make(map[mail.Address]int32)
	}
	l.index[sk] = int32(len(l.log))
	l.log = append(l.log, e)
}

// reserve sizes an empty list for n entries.
func (l *list) reserve(n int) {
	if l.index == nil {
		l.index = make(map[mail.Address]int32, n)
		l.log = make([]Entry, 0, n)
	}
}

// insert adds e under the canonical sender sk unless sk is already
// present: on replay and import the existing entry wins.
func (l *list) insert(sk mail.Address, e Entry) {
	if !l.has(sk) {
		l.add(sk, e)
	}
}

// entries returns the current entries sorted by addition time, then
// address; nil when there are none.
func (l *list) entries() []Entry {
	if len(l.index) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(l.index))
	for _, i := range l.index {
		out = append(out, l.log[i])
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Added.Equal(out[j].Added) {
			return out[i].Added.Before(out[j].Added)
		}
		return out[i].Addr.Key() < out[j].Addr.Key()
	})
	return out
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
		s.account(m.User).white.insert(m.Entry.Addr.Canonical(), m.Entry)
	case MutAddBlack:
		s.account(m.User).black.insert(m.Entry.Addr.Canonical(), m.Entry)
	case MutRemoveWhite:
		if a := s.users[m.User.Canonical()]; a != nil {
			delete(a.white.index, m.Entry.Addr.Canonical())
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
	sk := sender.Canonical()
	if l.has(sk) {
		return false
	}
	e := Entry{Addr: sender, Source: src, Added: s.clk.Now()}
	l.add(sk, e)
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
	sk := sender.Canonical()
	if !a.white.has(sk) {
		return false
	}
	delete(a.white.index, sk)
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
	n := 0
	for _, e := range a.white.log {
		if !e.Added.Before(from) && e.Added.Before(to) && want(e.Source) {
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
			a.white.insert(e.Addr.Canonical(), e)
		}
		for _, e := range l.Black {
			a.black.insert(e.Addr.Canonical(), e)
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
		for _, e := range a.white.log {
			out[e.Source]++
		}
	}
	return out
}
