package loadgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// Class is the fate the generator draws for a transaction; the server
// must answer with exactly the reply that fate implies.
type Class uint8

// Transaction classes, in the order of the paper's Fig. 1 lifecycle.
const (
	// UnknownRcpt: valid sender, local domain, no such user — 550 at RCPT.
	UnknownRcpt Class = iota
	// Unresolvable: sender domain has no DNS record — 450 at MAIL.
	Unresolvable
	// NoRelay: recipient domain is not ours — 554 at RCPT.
	NoRelay
	// White: a whitelisted contact writes to its user — 250, delivered.
	White
	// GrayClean: a never-seen sender writes to a valid user — 250,
	// quarantined and challenged.
	GrayClean
	// GrayVirus: as GrayClean but the body carries the EICAR line — 250,
	// dropped by the antivirus filter, no challenge.
	GrayVirus
	NumClasses
)

var classNames = [NumClasses]string{"unknown-rcpt", "unresolvable", "no-relay", "white", "gray-clean", "gray-virus"}

func (c Class) String() string { return classNames[c] }

// Want is the final SMTP reply code a correct server gives the class.
func (c Class) Want() int {
	switch c {
	case UnknownRcpt:
		return 550
	case Unresolvable:
		return 450
	case NoRelay:
		return 554
	default:
		return 250
	}
}

// Domain is the protected mail domain every live workload uses.
const Domain = "corp.example"

// Users is the number of protected mailboxes, user0..user49.
const Users = 50

// resolvable are the sender domains crserver registers with -resolve-all.
var resolvable = [4]string{"example.com", "example.org", "gmail.example", "test.example"}

// eicar is the antivirus test signature (kept literal here: the
// generator may not import the filter it is testing).
const eicar = `X5O!P%@AP[4\PZX54(P^)7CC)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!$H+H*`

// Spec describes one traffic mix.
type Spec struct {
	// Weights are the class shares per 1000 transactions.
	Weights [NumClasses]int
	// MinBody and MaxBody bound the message size in bytes.
	MinBody, MaxBody int
	// DotLines is the share of body lines that start with a dot and so
	// need stuffing on the wire.
	DotLines float64
	// Pairs is the number of (user, contact) pairs whitelisted in set-up;
	// White transactions draw from them.
	Pairs int
	// BadDomains is the size of the unresolvable-name pool, chosen
	// against the resolver cache's capacity.
	BadDomains int
}

// The three live mixes. PaperMix is Fig. 1 per 1000 MTA-IN emails:
// 624 unknown recipient, 110 unresolvable, 23 relay attempts, 31 white,
// 212 gray of which 54% carry a virus.
var (
	PaperMix   = Spec{Weights: [NumClasses]int{624, 110, 23, 31, 98, 114}, MinBody: 1 << 10, MaxBody: 8 << 10, Pairs: 200, BadDomains: 50000}
	GrayFlood  = Spec{Weights: [NumClasses]int{GrayClean: 1000}, MinBody: 4 << 10, MaxBody: 4 << 10}
	WhiteLarge = Spec{Weights: [NumClasses]int{White: 1000}, MinBody: 16 << 10, MaxBody: 16 << 10, DotLines: 0.03, Pairs: 1000}
)

// Bodies is the pool of pre-rendered message bodies a mix draws from,
// in wire form: CRLF lines, dot-stuffed, terminated by ".\r\n".
type Bodies struct {
	clean [][]byte
	virus [][]byte
}

const bodyPool = 32

// NewBodies renders the pool for spec from seed.
func NewBodies(spec Spec, seed int64) *Bodies {
	rng := rand.New(rand.NewSource(seed ^ 0x5eedb0d1e5))
	b := &Bodies{}
	for i := 0; i < bodyPool; i++ {
		// Sizes are spread evenly over the range, so the mean message size
		// — which the cost of a transaction follows — is the same for
		// every seed; the seed decides the text.
		size := spec.MinBody + (spec.MaxBody-spec.MinBody)*i/(bodyPool-1)
		b.clean = append(b.clean, renderBody(rng, i, size, spec.DotLines, false))
		if spec.Weights[GrayVirus] > 0 {
			b.virus = append(b.virus, renderBody(rng, i, size, spec.DotLines, true))
		}
	}
	return b
}

const words = "quarterly report attached please review the figures before our meeting on thursday thanks regards invoice delivery schedule updated "

func renderBody(rng *rand.Rand, n, size int, dotLines float64, virus bool) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "From: Sender <sender%d@example.com>\r\nTo: user@%s\r\nSubject: benchmark message %d\r\n", n, Domain, n)
	b.WriteString("MIME-Version: 1.0\r\nContent-Type: text/plain; charset=utf-8\r\n\r\n")
	if virus {
		b.WriteString("please see the attached file " + eicar + "\r\n")
	}
	for b.Len() < size {
		off := rng.Intn(len(words) - 72)
		if rng.Float64() < dotLines {
			b.WriteString("..") // a line starting with '.', stuffed
		}
		b.WriteString(words[off : off+70])
		b.WriteString("\r\n")
	}
	b.WriteString(".\r\n")
	return b.Bytes()
}

// Tx is one generated transaction. The slices are owned by the Mix and
// valid until its next call to Next.
type Tx struct {
	Class Class
	From  []byte
	Rcpt  []byte
	Body  []byte
}

// Mix is one connection's deterministic transaction stream: the same
// (spec, seed, stream) always yields the same sequence, whatever the
// timing of the other connections.
type Mix struct {
	spec   Spec
	bodies *Bodies
	rng    *rand.Rand
	stream int
	seq    int
	tx     Tx
}

// NewMix returns stream number stream of the mix. Distinct streams use
// disjoint never-seen-sender name spaces.
func NewMix(spec Spec, bodies *Bodies, seed int64, stream int) *Mix {
	return &Mix{
		spec:   spec,
		bodies: bodies,
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(stream))),
		stream: stream,
	}
}

func (m *Mix) draw() Class {
	r := m.rng.Intn(1000)
	for c := Class(0); c < NumClasses; c++ {
		if r < m.spec.Weights[c] {
			return c
		}
		r -= m.spec.Weights[c]
	}
	return UnknownRcpt
}

func appendUser(dst []byte, n int) []byte {
	dst = append(dst, "user"...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, '@')
	return append(dst, Domain...)
}

// PairAddrs returns the user and contact of whitelist pair p.
func PairAddrs(p int) (user, contact string) {
	return string(appendUser(nil, p%Users)), string(appendContact(nil, p))
}

func appendContact(dst []byte, p int) []byte {
	dst = append(dst, "contact"...)
	dst = strconv.AppendInt(dst, int64(p), 10)
	return append(dst, "@example.com"...)
}

// appendFresh writes a sender address no other transaction of the run
// uses: stream and sequence number are both in the local part.
func (m *Mix) appendFresh(dst []byte, prefix string) []byte {
	dst = append(dst, prefix...)
	dst = strconv.AppendInt(dst, int64(m.stream), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(m.seq), 10)
	dst = append(dst, '@')
	return append(dst, resolvable[m.rng.Intn(len(resolvable))]...)
}

// Next generates the stream's next transaction.
func (m *Mix) Next() *Tx {
	t := &m.tx
	t.Class = m.draw()
	m.seq++
	t.From, t.Rcpt = t.From[:0], t.Rcpt[:0]
	t.Body = m.bodies.clean[m.rng.Intn(len(m.bodies.clean))]
	switch t.Class {
	case UnknownRcpt:
		t.From = m.appendFresh(t.From, "spam")
		t.Rcpt = append(strconv.AppendInt(append(t.Rcpt, "nobody"...), int64(m.rng.Intn(1<<20)), 10), "@"+Domain...)
	case Unresolvable:
		t.From = strconv.AppendInt(append(t.From, "bot@host"...), int64(m.rng.Intn(m.spec.BadDomains)), 10)
		t.From = append(t.From, ".nxdomain.example"...)
		t.Rcpt = appendUser(t.Rcpt, m.rng.Intn(Users))
	case NoRelay:
		t.From = m.appendFresh(t.From, "relay")
		t.Rcpt = strconv.AppendInt(append(t.Rcpt, "someone@elsewhere"...), int64(m.rng.Intn(1000)), 10)
		t.Rcpt = append(t.Rcpt, ".example"...)
	case White:
		p := m.rng.Intn(m.spec.Pairs)
		t.From = appendContact(t.From, p)
		t.Rcpt = appendUser(t.Rcpt, p%Users)
	case GrayClean, GrayVirus:
		t.From = m.appendFresh(t.From, "new")
		t.Rcpt = appendUser(t.Rcpt, m.rng.Intn(Users))
		if t.Class == GrayVirus {
			t.Body = m.bodies.virus[m.rng.Intn(len(m.bodies.virus))]
		}
	}
	return t
}

// SeedTx returns the set-up transaction that puts pair p's contact into
// its user's quarantine, from where the digest UI authorizes it.
func (m *Mix) SeedTx(p int) *Tx {
	t := &m.tx
	t.Class = GrayClean
	t.From = appendContact(t.From[:0], p)
	t.Rcpt = appendUser(t.Rcpt[:0], p%Users)
	t.Body = m.bodies.clean[p%len(m.bodies.clean)]
	return t
}
