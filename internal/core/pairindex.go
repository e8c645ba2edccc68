package core

import (
	"hash/maphash"
	"strings"

	"repro/internal/mail"
)

// pairIndex finds the pending-challenge queue of a (recipient, sender)
// pair: an open-addressed hash table of each queue's last message,
// keyed by a seeded hash of the canonical pair, with linear probing
// over a power-of-two size kept at most three-quarters full. Beside
// each slot it keeps the low 32 bits of its pair's hash as a tag (0
// marks an empty slot), from which it finds the slot's home, so a probe,
// a removal and a rehash read a record only on a tag match. It holds no
// key: a probe compares the record's own recipient and sender with the
// pair, so pairs whose hashes collide share a probe chain but never a
// slot. A removal shifts the rest of its chain back, so no slot is ever
// a tombstone. It costs 16 to 32 bytes a pair, against about 128 for a
// map keyed by the two canonical addresses.
type pairIndex struct {
	tags  []uint32
	slots []*quarantined
	n     int
}

// pair is a (recipient, sender) pair in canonical form (see
// mail.Address.Canonical) with its hash.
type pair struct {
	rcpt, sender mail.Address
	hash         uint64
}

// collidePairs gives every pair the same hash, all ones: one probe chain
// that starts at the table's last slot and wraps. Only tests set it.
var collidePairs bool

// pairSeed keys makePair's hash. It differs per process, so the table's
// layout does too; no output depends on the layout.
var pairSeed = maphash.MakeSeed()

// makePair canonicalises and hashes the pair (rcpt, sender).
func makePair(rcpt, sender mail.Address) pair {
	p := pair{rcpt: rcpt.Canonical(), sender: sender.Canonical()}
	if collidePairs {
		p.hash = ^uint64(0)
		return p
	}
	var h maphash.Hash
	h.SetSeed(pairSeed)
	h.WriteString(p.rcpt.Local)
	h.WriteByte('@')
	h.WriteString(p.rcpt.Domain)
	h.WriteByte(0)
	h.WriteString(p.sender.Local)
	h.WriteByte('@')
	h.WriteString(p.sender.Domain)
	p.hash = h.Sum64()
	return p
}

// pairOf returns the pair q is held under.
func pairOf(q *quarantined) pair { return makePair(q.msg.Rcpt, q.msg.EnvelopeFrom) }

// is reports whether q's message belongs to p.
func (p *pair) is(q *quarantined) bool {
	return canonicalIs(q.msg.Rcpt, p.rcpt) && canonicalIs(q.msg.EnvelopeFrom, p.sender)
}

// canonicalIs reports whether a canonicalises to c, without allocating
// when a's local part is already lower case.
func canonicalIs(a, c mail.Address) bool {
	return a.Domain == c.Domain && (a.Local == c.Local || strings.ToLower(a.Local) == c.Local)
}

// tag returns p's slot tag: the low half of its hash, never 0.
func (p *pair) tag() uint32 {
	if t := uint32(p.hash); t != 0 {
		return t
	}
	return 1
}

// find looks p up: slot is the slot holding p's last message (q non-nil)
// or the empty slot that ends p's probe chain, -1 in an empty table.
func (x *pairIndex) find(p *pair) (slot int, q *quarantined) {
	if len(x.slots) == 0 {
		return -1, nil
	}
	mask := len(x.slots) - 1
	tag := p.tag()
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		switch x.tags[i] {
		case 0:
			return i, nil
		case tag:
			if q := x.slots[i]; p.is(q) {
				return i, q
			}
		}
	}
}

// insert stores q as the last message of p, which find reported absent
// at slot.
func (x *pairIndex) insert(p *pair, slot int, q *quarantined) {
	if slot < 0 || 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
		slot, _ = x.find(p)
	}
	x.tags[slot], x.slots[slot] = p.tag(), q
	x.n++
}

// grow doubles the table (to 8 slots from empty) and rehashes it.
func (x *pairIndex) grow() {
	tags, slots := x.tags, x.slots
	size := max(8, 2*len(slots))
	x.tags, x.slots = make([]uint32, size), make([]*quarantined, size)
	mask := size - 1
	for j, t := range tags {
		if t == 0 {
			continue
		}
		i := int(t) & mask
		for x.tags[i] != 0 {
			i = (i + 1) & mask
		}
		x.tags[i], x.slots[i] = t, slots[j]
	}
}

// remove empties slot and moves back each later message of its probe
// chain whose home slot the gap now cuts off from it.
func (x *pairIndex) remove(slot int) {
	mask := len(x.slots) - 1
	x.tags[slot], x.slots[slot] = 0, nil
	x.n--
	for j := (slot + 1) & mask; x.tags[j] != 0; j = (j + 1) & mask {
		home := int(x.tags[j]) & mask
		// The message at j stays unless its home lies cyclically in
		// (slot, j], which a probe from home reaches without the gap.
		if (j-home)&mask < (j-slot)&mask {
			continue
		}
		x.tags[slot], x.slots[slot] = x.tags[j], x.slots[j]
		x.tags[j], x.slots[j] = 0, nil
		slot = j
	}
}
