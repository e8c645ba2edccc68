package core

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/digest"
	"repro/internal/dnssim"
	"repro/internal/mail"
	"repro/internal/whitelist"
)

// The quarantine fuzzer's alphabet: two users, one of them also spelled
// in another case, and senders few enough that pairs repeat, one of them
// a case variant of another and one the null sender.
var (
	quarRcpts = []mail.Address{
		{Local: "bob", Domain: "corp.example"},
		{Local: "Bob", Domain: "corp.example"},
		{Local: "carol", Domain: "corp.example"},
	}
	quarSenders = []mail.Address{
		{Local: "ann", Domain: "example.com"},
		{Local: "ANN", Domain: "example.com"},
		{Local: "dan", Domain: "example.com"},
		{Local: "eve", Domain: "example.com"},
		mail.Null,
	}
)

// refQuarantine is the gray path's quarantine state kept the way the
// engine once kept it: a map of messages, a map of message IDs per
// recipient, a slice of message IDs per (recipient, sender) pair, and
// the live challenge tokens. It also keeps the whitelist pairs a solve or
// an authorize adds, and the challenge rate window.
type refQuarantine struct {
	ttl        time.Duration
	rateCap    int
	quarantine map[string]*refMsg
	byRcpt     map[mail.Address]map[string]bool
	pending    map[pairKey][]string
	white      map[pairKey]bool
	tokens     map[string]string // live token -> message ID
	rateStart  time.Time
	rateCount  int
}

// pairKey is the reference's key for a (recipient, sender) pair: both
// addresses canonicalised.
type pairKey struct{ rcpt, sender mail.Address }

func makePairKey(rcpt, sender mail.Address) pairKey {
	return pairKey{rcpt: rcpt.Canonical(), sender: sender.Canonical()}
}

type refMsg struct {
	msg    *mail.Message
	queued time.Time
	token  string // "" when no challenge was sent
	hasPK  bool
}

func newRefQuarantine(ttl time.Duration, rateCap int) *refQuarantine {
	return &refQuarantine{
		ttl:        ttl,
		rateCap:    rateCap,
		quarantine: map[string]*refMsg{},
		byRcpt:     map[mail.Address]map[string]bool{},
		pending:    map[pairKey][]string{},
		white:      map[pairKey]bool{},
		tokens:     map[string]string{},
	}
}

func (r *refQuarantine) add(q *refMsg) {
	r.quarantine[q.msg.ID] = q
	rk := q.msg.Rcpt.Canonical()
	if r.byRcpt[rk] == nil {
		r.byRcpt[rk] = map[string]bool{}
	}
	r.byRcpt[rk][q.msg.ID] = true
}

func (r *refQuarantine) remove(q *refMsg) {
	delete(r.quarantine, q.msg.ID)
	rk := q.msg.Rcpt.Canonical()
	delete(r.byRcpt[rk], q.msg.ID)
	if len(r.byRcpt[rk]) == 0 {
		delete(r.byRcpt, rk)
	}
	if q.token != "" {
		delete(r.tokens, q.token)
	}
}

func (r *refQuarantine) removePending(q *refMsg) {
	if !q.hasPK {
		return
	}
	pk := makePairKey(q.msg.Rcpt, q.msg.EnvelopeFrom)
	ids := slices.DeleteFunc(r.pending[pk], func(id string) bool { return id == q.msg.ID })
	if len(ids) == 0 {
		delete(r.pending, pk)
	} else {
		r.pending[pk] = ids
	}
}

// receive reports what the engine should do with m: deliver it to a
// whitelisted pair, or quarantine it and challenge its sender or not.
func (r *refQuarantine) receive(m *mail.Message, now time.Time) (white, challenge bool) {
	if !m.EnvelopeFrom.IsNull() && r.white[makePairKey(m.Rcpt, m.EnvelopeFrom)] {
		return true, false
	}
	q := &refMsg{msg: m, queued: now}
	r.add(q)
	if m.EnvelopeFrom.IsNull() || m.AutoSubmitted != "" {
		return false, false
	}
	pk := makePairKey(m.Rcpt, m.EnvelopeFrom)
	q.hasPK = true
	if len(r.pending[pk]) > 0 {
		r.pending[pk] = append(r.pending[pk], m.ID)
		return false, false
	}
	r.pending[pk] = []string{m.ID}
	if r.rateCap > 0 {
		if now.Sub(r.rateStart) >= time.Hour {
			r.rateStart, r.rateCount = now, 0
		}
		if r.rateCount >= r.rateCap {
			return false, false
		}
		r.rateCount++
	}
	return false, true
}

// solve answers the challenge behind token and returns the IDs it
// releases, in order, or false when the token is dropped or expired.
func (r *refQuarantine) solve(token string, now time.Time) ([]string, bool) {
	id, ok := r.tokens[token]
	if !ok || now.Sub(r.quarantine[id].queued) > r.ttl {
		return nil, false
	}
	solved := r.quarantine[id]
	pk := makePairKey(solved.msg.Rcpt, solved.msg.EnvelopeFrom)
	r.white[pk] = true
	var released []string
	for _, pid := range r.pending[pk] {
		if q, ok := r.quarantine[pid]; ok {
			released = append(released, pid)
			r.remove(q)
		}
	}
	delete(r.pending, pk)
	if q, ok := r.quarantine[id]; ok {
		released = append(released, id)
		r.remove(q)
	}
	return released, true
}

// digestAction is the digest's authorize (or delete): it reports whether
// id is quarantined for user, and releases it if so.
func (r *refQuarantine) digestAction(user mail.Address, id string, authorize bool) bool {
	q, ok := r.quarantine[id]
	if !ok || !q.msg.Rcpt.KeyEquals(user) {
		return false
	}
	r.remove(q)
	r.removePending(q)
	if authorize && !q.msg.EnvelopeFrom.IsNull() {
		r.white[makePairKey(user, q.msg.EnvelopeFrom)] = true
	}
	return true
}

func (r *refQuarantine) expire(now time.Time) int {
	n := 0
	for _, q := range r.quarantine {
		if now.Sub(q.queued) > r.ttl {
			r.remove(q)
			r.removePending(q)
			n++
		}
	}
	return n
}

func (r *refQuarantine) pendingFor(user mail.Address) []digest.Item {
	var out []digest.Item
	for id := range r.byRcpt[user.Canonical()] {
		q := r.quarantine[id]
		out = append(out, digest.Item{MsgID: id, Sender: q.msg.EnvelopeFrom, Subject: q.msg.Subject, Queued: q.queued})
	}
	slices.SortFunc(out, func(a, b digest.Item) int {
		if c := a.Queued.Compare(b.Queued); c != 0 {
			return c
		}
		return strings.Compare(a.MsgID, b.MsgID)
	})
	return out
}

// quarOps hands out the fuzz input a byte at a time, zero once spent.
type quarOps struct{ data []byte }

func (r *quarOps) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// maxQuarOps keeps one fuzz input's run short: every operation is
// followed by a full comparison with the reference.
const maxQuarOps = 128

// runQuarantineOps decodes data into an hourly challenge cap (0 for none)
// and a sequence of at most maxQuarOps operations (receive, solve, digest
// authorize and delete, clock advance, expiry sweep), runs each on an
// engine and on refQuarantine, and fails at the first operation after
// which they disagree: on what it delivered or challenged, on the
// digests, the counts, or the number of live challenge tokens.
func runQuarantineOps(t *testing.T, data []byte) {
	t.Helper()
	r := &quarOps{data: data}
	const ttl = 30 * 24 * time.Hour
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")
	rateCap := r.next() % 4
	var sent []OutboundChallenge
	var inbox []Delivery
	eng := New(Config{
		Name:                 "fuzz",
		Domains:              []string{"corp.example"},
		QuarantineTTL:        ttl,
		ChallengeFrom:        mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL:     "http://cr.corp.example",
		MaxChallengesPerHour: rateCap,
	}, clk, dns, nil, whitelist.NewStore(clk), func(ch OutboundChallenge) { sent = append(sent, ch) })
	eng.SetInboxSink(func(d Delivery, _ *mail.Message) { inbox = append(inbox, d) })
	eng.AddUser(quarRcpts[0])
	eng.AddUser(quarRcpts[2])
	ref := newRefQuarantine(ttl, rateCap)
	svc := eng.Captcha()

	var ids []string // every message ID received, for the digest actions
	delivered := func(step int, op string, via DeliveryVia, want []string) {
		t.Helper()
		var got []string
		for _, d := range inbox {
			if d.Via != via {
				t.Fatalf("step %d %s: delivered %s via %s, want via %s", step, op, d.MsgID, d.Via, via)
			}
			got = append(got, d.MsgID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d %s: delivered %v, want %v", step, op, got, want)
		}
		inbox = inbox[:0]
	}
	for step := 0; len(r.data) > 0 && step < maxQuarOps; step++ {
		var op string
		switch code := r.next() % 7; code {
		case 0, 1:
			b, f := r.next(), r.next()
			m := &mail.Message{
				ID:           "q-" + strconv.Itoa(len(ids)),
				EnvelopeFrom: quarSenders[b%len(quarSenders)],
				Rcpt:         quarRcpts[(b/len(quarSenders))%len(quarRcpts)],
				Subject:      "subject " + strconv.Itoa(f%3),
				Size:         100,
				ClientIP:     "192.0.2.10",
				Received:     clk.Now(),
			}
			if f&4 != 0 {
				m.AutoSubmitted = "auto-replied"
			}
			ids = append(ids, m.ID)
			op = "Receive " + m.ID + " " + m.EnvelopeFrom.String() + " -> " + m.Rcpt.String()
			nSent := len(sent)
			white, challenge := ref.receive(m, clk.Now())
			if got := eng.Receive(m); got != Accepted {
				t.Fatalf("step %d %s: %v", step, op, got)
			}
			if white {
				delivered(step, op, ViaWhitelist, []string{m.ID})
			} else {
				delivered(step, op, ViaWhitelist, nil)
			}
			switch {
			case challenge && (len(sent) != nSent+1 || sent[nSent].MsgID != m.ID):
				t.Fatalf("step %d %s: no challenge sent, want one", step, op)
			case !challenge && len(sent) != nSent:
				t.Fatalf("step %d %s: challenge sent, want none", step, op)
			case challenge:
				ref.quarantine[m.ID].token = sent[nSent].Token
				ref.tokens[sent[nSent].Token] = m.ID
			}
		case 2:
			if len(sent) == 0 {
				continue
			}
			tok := sent[r.next()%len(sent)].Token
			op = "Solve " + tok
			want, ok := ref.solve(tok, clk.Now())
			ans, err := svc.Answer(tok)
			if (err == nil) != ok {
				t.Fatalf("step %d %s: Answer err = %v, reference live = %v", step, op, err, ok)
			}
			if ok {
				if err := svc.Solve(tok, ans); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
			}
			delivered(step, op, ViaChallenge, want)
		case 3, 4:
			user := quarRcpts[r.next()%len(quarRcpts)]
			var id string
			if len(ids) > 0 {
				id = ids[r.next()%len(ids)]
			}
			authorize := code == 3
			var err error
			if authorize {
				op = "AuthorizeFromDigest " + id
				err = eng.AuthorizeFromDigest(user, id)
			} else {
				op = "DeleteFromDigest " + id
				err = eng.DeleteFromDigest(user, id)
			}
			ok := ref.digestAction(user, id, authorize)
			if (err == nil) != ok {
				t.Fatalf("step %d %s for %s: err = %v, reference found it = %v", step, op, user, err, ok)
			}
			if ok && authorize {
				delivered(step, op, ViaDigest, []string{id})
			} else {
				delivered(step, op, ViaDigest, nil)
			}
		case 5:
			b := r.next()
			d := time.Duration(b>>1) * time.Hour
			if b&1 != 0 {
				d *= 24
			}
			op = "Advance " + d.String()
			clk.Advance(d)
		case 6:
			op = "ExpireQuarantine"
			if got, want := eng.ExpireQuarantine(), ref.expire(clk.Now()); got != want {
				t.Fatalf("step %d %s: expired %d, want %d", step, op, got, want)
			}
		}
		compareQuarantine(t, step, op, eng, ref)
	}
}

// compareQuarantine compares every read of the engine's quarantine with
// the reference: each user's digest and count under each spelling, the
// quarantine's size, the pending pairs, each found from its own pair,
// and the number of live challenge tokens, which a probe challenge
// carries as its token's last field.
func compareQuarantine(t *testing.T, step int, op string, eng *Engine, ref *refQuarantine) {
	t.Helper()
	idx := &eng.pendingChallenge
	if idx.n != len(ref.pending) {
		t.Fatalf("step %d %s: %d pending pairs, want %d", step, op, idx.n, len(ref.pending))
	}
	held := 0
	for i, q := range idx.slots {
		if q == nil {
			if idx.tags[i] != 0 {
				t.Fatalf("step %d %s: empty slot %d has tag %#x", step, op, i, idx.tags[i])
			}
			continue
		}
		held++
		p := pairOf(q)
		if idx.tags[i] != p.tag() {
			t.Fatalf("step %d %s: slot %d of %s has tag %#x, want %#x", step, op, i, q.msg.ID, idx.tags[i], p.tag())
		}
		if slot, _ := idx.find(&p); slot != i {
			t.Fatalf("step %d %s: pair of %s is in slot %d, found at %d", step, op, q.msg.ID, i, slot)
		}
		if ids := ref.pending[makePairKey(q.msg.Rcpt, q.msg.EnvelopeFrom)]; len(ids) == 0 || ids[len(ids)-1] != q.msg.ID {
			t.Fatalf("step %d %s: pair's last message is %s, want the last of %v", step, op, q.msg.ID, ids)
		}
	}
	if held != idx.n {
		t.Fatalf("step %d %s: %d slots hold a pair, count %d", step, op, held, idx.n)
	}
	for _, u := range quarRcpts {
		got, want := eng.PendingForUser(u), ref.pendingFor(u)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d %s: PendingForUser(%s) = %v, want %v", step, op, u, got, want)
		}
		if n := eng.PendingCount(u); n != len(want) {
			t.Fatalf("step %d %s: PendingCount(%s) = %d, want %d", step, op, u, n, len(want))
		}
	}
	if got, want := eng.QuarantineLen(), len(ref.quarantine); got != want {
		t.Fatalf("step %d %s: QuarantineLen = %d, want %d", step, op, got, want)
	}
	probe := eng.Captcha().Issue("probe", quarRcpts[0], quarSenders[0])
	eng.Captcha().Drop(probe)
	live, err := strconv.ParseInt(probe.Token[strings.LastIndexByte(probe.Token, '-')+1:], 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if int(live) != len(ref.tokens) {
		t.Fatalf("step %d %s: %d live challenge tokens, want %d", step, op, live, len(ref.tokens))
	}
}

// FuzzQuarantineOps holds the quarantine, its recipient lists and its
// pending-challenge queues to refQuarantine on every input the fuzzer
// finds.
func FuzzQuarantineOps(f *testing.F) {
	addQuarantineSeeds(f)
	f.Fuzz(runQuarantineOps)
}

// FuzzQuarantineOpsColliding is FuzzQuarantineOps with every pair given
// one hash: all pending pairs share one probe chain, so a lookup must
// tell them apart by their addresses and every removal shifts the chain.
func FuzzQuarantineOpsColliding(f *testing.F) {
	collidePairs = true
	f.Cleanup(func() { collidePairs = false })
	addQuarantineSeeds(f)
	f.Fuzz(runQuarantineOps)
}

// addQuarantineSeeds adds the quarantine fuzzers' seed inputs.
func addQuarantineSeeds(f *testing.F) {
	f.Add([]byte{})
	// Two messages from one pair, a solve releasing both, then the pair
	// whitelisted.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0})
	// A capped hour: the second pair is held unchallenged, then expires.
	f.Add([]byte{1, 0, 2, 0, 0, 3, 0, 1, 5, 0, 5, 61, 6})
	// A held message authorized, then the head deleted, under the
	// recipient's other spelling.
	f.Add([]byte{0, 0, 0, 0, 0, 5, 0, 3, 1, 1, 4, 0, 0, 2, 0})
	// Null senders, an auto-reply and a case-variant sender.
	f.Add([]byte{0, 0, 4, 0, 0, 1, 4, 0, 3, 2, 0, 2, 1, 6, 5, 63, 6})
}

// TestQuarantineOpsRandom runs runQuarantineOps over random inputs, so
// every test run checks the engine against the reference beyond the
// fuzz seeds, with seeded hashes and with every pair colliding.
func TestQuarantineOpsRandom(t *testing.T) {
	defer func() { collidePairs = false }()
	for _, collide := range []bool{false, true} {
		collidePairs = collide
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			data := make([]byte, 2*maxQuarOps)
			rng.Read(data)
			runQuarantineOps(t, data)
		}
	}
}

// TestQuarantineConcurrent receives gray mail for a few repeated pairs
// from several goroutines while others solve the challenges and act on
// the digests, then expires what is left. Every message must end in
// exactly one fate, and the quarantine, its indexes and the challenge
// service must end empty. Run it with -race.
func TestQuarantineConcurrent(t *testing.T) {
	const receivers, perReceiver = 4, 150
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")
	var mu sync.Mutex
	var tokens []string
	eng := New(Config{
		Name:             "race",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, nil, whitelist.NewStore(clk), func(ch OutboundChallenge) {
		mu.Lock()
		tokens = append(tokens, ch.Token)
		mu.Unlock()
	})
	users := []mail.Address{quarRcpts[0], quarRcpts[2]}
	for _, u := range users {
		eng.AddUser(u)
	}
	svc := eng.Captcha()

	var receiving, acting sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < receivers; g++ {
		receiving.Add(1)
		go func(g int) {
			defer receiving.Done()
			for i := 0; i < perReceiver; i++ {
				eng.Receive(&mail.Message{
					ID:           "c-" + strconv.Itoa(g) + "-" + strconv.Itoa(i),
					EnvelopeFrom: quarSenders[(g+i)%len(quarSenders)],
					Rcpt:         users[i%len(users)],
					Size:         100,
					ClientIP:     "192.0.2.10",
				})
			}
		}(g)
	}
	acting.Add(2)
	go func() { // the senders solving their challenges
		defer acting.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			var tok string
			if len(tokens) > 0 {
				tok = tokens[i%len(tokens)]
			}
			mu.Unlock()
			if ans, err := svc.Answer(tok); err == nil {
				_ = svc.Solve(tok, ans) // a racing solve of the same token may win
			}
		}
	}()
	go func() { // the users working through their digests
		defer acting.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := users[i%len(users)]
			if items := eng.PendingForUser(u); len(items) > 0 {
				it := items[i%len(items)]
				if i%3 == 0 {
					_ = eng.DeleteFromDigest(u, it.MsgID) // a racing solve may release it first
				} else {
					_ = eng.AuthorizeFromDigest(u, it.MsgID)
				}
			}
		}
	}()
	receiving.Wait()
	close(stop)
	acting.Wait()

	clk.Advance(31 * 24 * time.Hour)
	eng.ExpireQuarantine()
	m := eng.Metrics()
	var delivered int64
	for _, n := range m.Delivered {
		delivered += n
	}
	if got := delivered + m.DigestDeleted + m.QuarantineExpired; got != receivers*perReceiver {
		t.Fatalf("%d delivered + %d deleted + %d expired = %d fates for %d messages",
			delivered, m.DigestDeleted, m.QuarantineExpired, got, receivers*perReceiver)
	}
	if n := eng.QuarantineLen(); n != 0 || len(eng.byRcpt) != 0 || eng.pendingChallenge.n != 0 {
		t.Fatalf("after expiry: quarantine %d, %d recipient lists, %d pending pairs", n, len(eng.byRcpt), eng.pendingChallenge.n)
	}
	for _, u := range quarRcpts {
		if n := eng.PendingCount(u); n != 0 {
			t.Fatalf("PendingCount(%s) = %d after expiry", u, n)
		}
	}
	probe := svc.Issue("probe", users[0], quarSenders[0])
	if !strings.HasSuffix(probe.Token, "-0000") {
		t.Fatalf("challenge tokens outlive their messages: probe token %s", probe.Token)
	}
}
