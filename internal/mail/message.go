package mail

import (
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Message is one email as seen by the CR system. A Message carries both the
// SMTP envelope (EnvelopeFrom / Rcpt, which drive routing decisions) and
// the header fields the measurement pipeline extracts (Subject, sizes,
// timestamps). The study only ever had access to headers, never bodies; we
// carry Body for the antivirus scanner but no component outside
// internal/filters reads it.
type Message struct {
	// ID is a unique message identifier assigned at generation or on
	// receipt (see NewID).
	ID string

	// EnvelopeFrom is the SMTP MAIL FROM reverse-path. Spam very often
	// spoofs it; it is the address challenges are sent to, which is the
	// root cause of the backscatter phenomenon the paper measures.
	EnvelopeFrom Address

	// Rcpt is the SMTP RCPT TO forward-path: the local user the message is
	// addressed to. The dispatcher makes a decision per (message, rcpt).
	Rcpt Address

	// HeaderFrom is the RFC 5322 From: header, which may differ from the
	// envelope. SPF validates the envelope; users see the header.
	HeaderFrom Address

	// Subject is the Subject: header, used by the §4.1 campaign clustering.
	Subject string

	// Size is the full size of the message in bytes (headers + body), used
	// for the reflected-traffic ratio RT of §3.3.
	Size int

	// Body is the message body. Only the antivirus filter inspects it.
	Body string

	// ClientIP is the IP address of the SMTP client that delivered the
	// message, as dotted quad. The reverse-DNS and RBL filters key on it.
	ClientIP string

	// HeloDomain is the domain announced in HELO/EHLO, used by SPF.
	HeloDomain string

	// AutoSubmitted is the RFC 3834 Auto-Submitted: header value
	// ("auto-replied", "auto-generated", ...; empty when absent or
	// "no"). Challenge emails set it, so a CR system receiving another
	// CR system's challenge can suppress the counter-challenge instead
	// of starting a challenge loop.
	AutoSubmitted string

	// Received is when the MTA-IN accepted the message.
	Received time.Time
}

// Clone returns a copy of m with the given recipient, used when one SMTP
// transaction carries multiple RCPT TO addresses: the dispatcher treats
// each recipient as an independent delivery decision.
func (m *Message) Clone(rcpt Address) *Message {
	c := *m
	c.Rcpt = rcpt
	return &c
}

var idCounter atomic.Uint64

// appendID renders "<prefix>-%06d" into dst. Hand-rolled so ID minting
// costs one allocation (the returned string) instead of fmt.Sprintf's
// several — IDs are minted once per generated message, squarely on the
// workload hot path.
func appendID(dst []byte, prefix string, n uint64) []byte {
	dst = append(dst, prefix...)
	dst = append(dst, '-')
	var tmp [20]byte
	i := len(tmp)
	for n >= 10 {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	i--
	tmp[i] = byte('0' + n)
	for pad := 6 - (len(tmp) - i); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, tmp[i:]...)
}

// ParseID splits an ID minted by NewID or an IDSource into its prefix and
// sequence number: the inverse of appendID. The prefix is everything
// before the last '-', so it may itself contain '-'. ok is false unless
// id is exactly what appendID renders for the pair: at least six digits,
// zero-padded only up to six, and a value that fits in a uint64.
func ParseID(id string) (prefix string, n uint64, ok bool) {
	dash := strings.LastIndexByte(id, '-')
	if dash < 0 {
		return "", 0, false
	}
	digits := id[dash+1:]
	if len(digits) < 6 || len(digits) > 6 && digits[0] == '0' {
		return "", 0, false
	}
	for i := 0; i < len(digits); i++ {
		d := uint64(digits[i] - '0')
		if d > 9 || n > (math.MaxUint64-d)/10 {
			return "", 0, false
		}
		n = n*10 + d
	}
	return id[:dash], n, true
}

// NewID returns a process-unique message ID with the given prefix. IDs are
// sequential rather than random so simulation runs are reproducible.
func NewID(prefix string) string {
	var buf [48]byte
	return string(appendID(buf[:0], prefix, idCounter.Add(1)))
}

// ResetIDCounter resets the global ID sequence. Tests and experiment
// drivers call it so message IDs are stable across runs.
func ResetIDCounter() { idCounter.Store(0) }

// IDSource is a deterministic per-stream ID generator in the same
// "<prefix>-%06d" format as NewID, but with its own private sequence.
// Parallel simulation lanes each own one (prefixed with a lane-unique
// name), so IDs stay globally unique and identical across worker counts
// without sharing the process-wide counter. Not safe for concurrent use;
// a lane is single-threaded by construction.
type IDSource struct {
	prefix string
	n      uint64
}

// NewIDSource returns an IDSource issuing "<prefix>-000001", ….
func NewIDSource(prefix string) *IDSource { return &IDSource{prefix: prefix} }

// Next returns the next ID in the stream.
func (s *IDSource) Next() string {
	s.n++
	var buf [48]byte
	return string(appendID(buf[:0], s.prefix, s.n))
}

// Headers is a minimal ordered header collection for rendered messages
// (challenges, digests, DSNs). Field names are matched case-insensitively
// as RFC 5322 requires, but the stored capitalisation is preserved.
type Headers struct {
	keys []string
	vals map[string]string
}

// NewHeaders returns an empty header set.
func NewHeaders() *Headers {
	return &Headers{vals: make(map[string]string)}
}

// Set adds or replaces a header field.
func (h *Headers) Set(key, value string) {
	ck := strings.ToLower(key)
	if _, ok := h.vals[ck]; !ok {
		h.keys = append(h.keys, key)
	}
	h.vals[ck] = value
}

// Render serialises the headers in insertion order, CRLF-terminated,
// followed by the blank separator line.
func (h *Headers) Render() string {
	var b strings.Builder
	for _, k := range h.keys {
		b.WriteString(k)
		b.WriteString(": ")
		b.WriteString(h.vals[strings.ToLower(k)])
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	return b.String()
}
