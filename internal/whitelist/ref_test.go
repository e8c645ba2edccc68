package whitelist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

// refStore is the store as it was before each entry was kept once: a
// map of entries per list next to its append-only log, and parallel
// white and black maps of users. It is the definition of what the
// store's operations mean; FuzzStoreOps holds Store to it after every
// operation.

// refList is one user's whitelist (or blacklist). Not safe for concurrent
// use on its own; refStore serialises access.
//
// Entries are keyed by the canonical sender Address (see
// mail.Address.Canonical), so membership checks on the dispatch hot
// path need no key-string allocation.
type refList struct {
	entries map[mail.Address]Entry // by canonical sender address
	log     []Entry                // append-only change log (additions only)
}

func newRefList() *refList {
	return &refList{entries: make(map[mail.Address]Entry)}
}

// refStore holds the white- and blacklists of every user of one company's
// installation. It is safe for concurrent use.
type refStore struct {
	clk clock.Clock

	mu      sync.RWMutex
	white   map[mail.Address]*refList // by canonical user address
	black   map[mail.Address]*refList
	journal func(Mutation)
}

// newRefStore returns an empty store using clk for entry timestamps.
func newRefStore(clk clock.Clock) *refStore {
	return &refStore{
		clk:   clk,
		white: make(map[mail.Address]*refList),
		black: make(map[mail.Address]*refList),
	}
}

// SetJournal installs the change-journal hook. The hook is invoked with
// the store lock held, once per applied mutation, in apply order; it
// must not call back into the store. Replays via Apply and bulk Import
// are not journalled (they reconstruct state that is already durable).
func (s *refStore) SetJournal(fn func(Mutation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = fn
}

// Apply re-applies a journalled mutation during WAL replay. Additions
// are insert-if-absent (replaying a mutation whose effect is already in
// the snapshot is a no-op), removals delete-if-present, so replaying any
// in-order suffix of the mutation history is idempotent.
func (s *refStore) Apply(m Mutation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m.Op {
	case MutAddWhite, MutAddBlack:
		lists := s.white
		if m.Op == MutAddBlack {
			lists = s.black
		}
		l := s.list(lists, m.User)
		sk := m.Entry.Addr.Canonical()
		if _, ok := l.entries[sk]; ok {
			return
		}
		l.entries[sk] = m.Entry
		l.log = append(l.log, m.Entry)
	case MutRemoveWhite:
		l := s.white[m.User.Canonical()]
		if l == nil {
			return
		}
		delete(l.entries, m.Entry.Addr.Canonical())
	}
}

func (s *refStore) list(m map[mail.Address]*refList, user mail.Address) *refList {
	uk := user.Canonical()
	l := m[uk]
	if l == nil {
		l = newRefList()
		m[uk] = l
	}
	return l
}

// AddWhite adds sender to user's whitelist with the given source. Adding
// an address that is already present is a no-op (the first source wins),
// matching the product's behaviour and keeping the change log an honest
// record of *new* entries for the Figure 9 churn statistics. It returns
// true if the entry was new.
func (s *refStore) AddWhite(user, sender mail.Address, src Source) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.list(s.white, user)
	sk := sender.Canonical()
	if _, ok := l.entries[sk]; ok {
		return false
	}
	e := Entry{Addr: sender, Source: src, Added: s.clk.Now()}
	l.entries[sk] = e
	l.log = append(l.log, e)
	if s.journal != nil {
		s.journal(Mutation{Op: MutAddWhite, User: user, Entry: e})
	}
	return true
}

// AddBlack adds sender to user's blacklist. Returns true if new.
func (s *refStore) AddBlack(user, sender mail.Address) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.list(s.black, user)
	sk := sender.Canonical()
	if _, ok := l.entries[sk]; ok {
		return false
	}
	e := Entry{Addr: sender, Source: SourceManual, Added: s.clk.Now()}
	l.entries[sk] = e
	l.log = append(l.log, e)
	if s.journal != nil {
		s.journal(Mutation{Op: MutAddBlack, User: user, Entry: e})
	}
	return true
}

// RemoveWhite deletes sender from user's whitelist. Removals are not
// logged (the paper counts only new entries). Returns true if present.
func (s *refStore) RemoveWhite(user, sender mail.Address) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.white[user.Canonical()]
	if l == nil {
		return false
	}
	sk := sender.Canonical()
	if _, ok := l.entries[sk]; !ok {
		return false
	}
	delete(l.entries, sk)
	if s.journal != nil {
		s.journal(Mutation{Op: MutRemoveWhite, User: user, Entry: Entry{Addr: sender, Added: s.clk.Now()}})
	}
	return true
}

// IsWhite reports whether sender is on user's whitelist.
func (s *refStore) IsWhite(user, sender mail.Address) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.white[user.Canonical()]
	if l == nil {
		return false
	}
	_, ok := l.entries[sender.Canonical()]
	return ok
}

// IsBlack reports whether sender is on user's blacklist.
func (s *refStore) IsBlack(user, sender mail.Address) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.black[user.Canonical()]
	if l == nil {
		return false
	}
	_, ok := l.entries[sender.Canonical()]
	return ok
}

// AdditionsBetween returns the number of whitelist entries user gained in
// [from, to), optionally restricted to the given sources (none = all).
// SourceSeed entries are excluded unless explicitly requested: the paper
// measures churn "excluding new users".
func (s *refStore) AdditionsBetween(user mail.Address, from, to time.Time, sources ...Source) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.white[user.Canonical()]
	if l == nil {
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
	for _, e := range l.log {
		if !e.Added.Before(from) && e.Added.Before(to) && want(e.Source) {
			n++
		}
	}
	return n
}

// Export returns every user's lists in a stable order (users sorted,
// entries sorted by addition time then address), suitable for snapshots.
func (s *refStore) Export() []ExportedList {
	s.mu.RLock()
	defer s.mu.RUnlock()
	users := make(map[mail.Address]bool)
	for u := range s.white {
		users[u] = true
	}
	for u := range s.black {
		users[u] = true
	}
	keys := make([]mail.Address, 0, len(users))
	for u := range users {
		keys = append(keys, u)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Key() < keys[j].Key() })

	dump := func(l *refList) []Entry {
		if l == nil {
			return nil
		}
		out := make([]Entry, 0, len(l.entries))
		for _, e := range l.entries {
			out = append(out, e)
		}
		sort.Slice(out, func(i, j int) bool {
			if !out[i].Added.Equal(out[j].Added) {
				return out[i].Added.Before(out[j].Added)
			}
			return out[i].Addr.Key() < out[j].Addr.Key()
		})
		return out
	}
	out := make([]ExportedList, 0, len(keys))
	for _, u := range keys {
		out = append(out, ExportedList{
			User:  u.Key(),
			White: dump(s.white[u]),
			Black: dump(s.black[u]),
		})
	}
	return out
}

// Import merges exported lists into the store, preserving the original
// sources and timestamps. Existing entries win (Import never overwrites).
func (s *refStore) Import(lists []ExportedList) error {
	for _, l := range lists {
		user, err := mail.ParseAddress(l.User)
		if err != nil {
			return fmt.Errorf("whitelist: bad user %q: %v", l.User, err)
		}
		s.mu.Lock()
		wl := s.list(s.white, user)
		for _, e := range l.White {
			sk := e.Addr.Canonical()
			if _, ok := wl.entries[sk]; ok {
				continue
			}
			wl.entries[sk] = e
			wl.log = append(wl.log, e)
		}
		bl := s.list(s.black, user)
		for _, e := range l.Black {
			sk := e.Addr.Canonical()
			if _, ok := bl.entries[sk]; ok {
				continue
			}
			bl.entries[sk] = e
			bl.log = append(bl.log, e)
		}
		s.mu.Unlock()
	}
	return nil
}

// CountBySource tallies all whitelist additions (across users) per source.
func (s *refStore) CountBySource() map[Source]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Source]int)
	for _, l := range s.white {
		for _, e := range l.log {
			out[e.Source]++
		}
	}
	return out
}
