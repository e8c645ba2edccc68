// Package digest holds the daily quarantine summaries the CR product
// mails to each protected user: the Item lines a digest lists, and the
// Book of digest sizes the measurement reads.
//
// The digest is the manual escape hatch of a challenge-response system:
// when a legitimate sender cannot or will not solve the challenge (most
// automatically generated mail — newsletters, receipts, notifications),
// the user can still rescue the message by authorizing it from the daily
// digest. The paper measures that ~2% of gray-spool senders were
// whitelisted this way (55,850 messages), with a delivery delay of 4 hours
// to 3 days, and studies per-user daily digest sizes (Figure 10).
package digest

import (
	"sync"
	"time"

	"repro/internal/mail"
)

// Item is one quarantined message line in a digest.
type Item struct {
	MsgID   string
	Sender  mail.Address
	Subject string
	Queued  time.Time
}

// Book records the size of every daily digest, per user and in day
// order, which is what the Figure 10 analysis (daily pending-message
// counts per user) reads. Safe for concurrent use; the counts are keyed
// by canonical address (mail.Address.Canonical, which allocates nothing
// for a lower-case local part) and lock-striped by it, so every company
// lane recording its end-of-day digests in the same epoch lands on a
// different stripe instead of one mutex.
type Book struct {
	stripes [bookStripes]bookStripe
}

const bookStripes = 16

type bookStripe struct {
	mu     sync.Mutex
	counts map[mail.Address][]int // by canonical user, one per recorded day
}

// NewBook returns an empty digest book.
func NewBook() *Book {
	b := &Book{}
	for i := range b.stripes {
		b.stripes[i].counts = make(map[mail.Address][]int)
	}
	return b
}

// stripeFor maps a canonical user to its stripe (FNV-1a over the local
// part, then the domain).
func (b *Book) stripeFor(user mail.Address) *bookStripe {
	h := uint32(2166136261)
	for i := 0; i < len(user.Local); i++ {
		h = (h ^ uint32(user.Local[i])) * 16777619
	}
	for i := 0; i < len(user.Domain); i++ {
		h = (h ^ uint32(user.Domain[i])) * 16777619
	}
	return &b.stripes[h%bookStripes]
}

// Record appends the size of user's next daily digest: pending messages
// awaiting a decision. Empty digests are recorded too: a zero on the
// Figure 10 time series is data, not absence of data.
func (b *Book) Record(user mail.Address, pending int) {
	key := user.Canonical()
	st := b.stripeFor(key)
	st.mu.Lock()
	st.counts[key] = append(st.counts[key], pending)
	st.mu.Unlock()
}

// Series returns the daily pending counts for user, in order.
func (b *Book) Series(user mail.Address) []int {
	key := user.Canonical()
	st := b.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.counts[key]...)
}
