// Package mail defines the message model shared by every layer of the
// challenge-response system: RFC 822/5321 address parsing and validation,
// the immutable Message structure carried from the MTA-IN through the
// dispatcher and spools, and helpers for header handling and message-ID
// generation.
package mail

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
)

// Parsing errors. The MTA-IN maps ErrMalformed* to the paper's
// "Malformed email" drop reason (0.06% of incoming traffic in the study).
var (
	// ErrEmptyAddress is returned for an empty address string. Note that an
	// empty *envelope* sender ("<>") is legal in SMTP (it marks bounces) and
	// is represented by the zero Address, not by a parse error.
	ErrEmptyAddress = errors.New("mail: empty address")
	// ErrMalformed is returned when an address does not have the
	// local-part@domain shape required by RFC 822.
	ErrMalformed = errors.New("mail: malformed address")
	// ErrBadLocalPart is returned for an invalid local part.
	ErrBadLocalPart = errors.New("mail: invalid local part")
	// ErrBadDomain is returned for an invalid domain.
	ErrBadDomain = errors.New("mail: invalid domain")
)

// Address is a parsed email address. Local retains its original case
// (RFC 5321 makes local parts case-sensitive in principle), while Domain is
// lower-cased during parsing because DNS names are case-insensitive.
type Address struct {
	Local  string
	Domain string
}

// Null is the empty reverse-path "<>" used by bounce messages (DSNs).
// Challenge-response systems MUST send challenges with a non-null sender,
// but must also never challenge a message whose envelope sender is null —
// replying to a bounce would loop.
var Null = Address{}

// IsNull reports whether a is the null reverse-path.
func (a Address) IsNull() bool { return a.Local == "" && a.Domain == "" }

// String formats the address as local@domain, or "<>" for the null path.
func (a Address) String() string {
	if a.IsNull() {
		return "<>"
	}
	return a.Local + "@" + a.Domain
}

// Key returns a canonical form used for whitelist and map lookups:
// the local part lower-cased plus the (already lower-case) domain.
// Matching local parts case-insensitively follows the behaviour of real
// CR deployments, which would otherwise fail to recognise senders whose
// clients change capitalisation.
func (a Address) Key() string {
	if a.IsNull() {
		return "<>"
	}
	return strings.ToLower(a.Local) + "@" + a.Domain
}

// CompareKeys orders a and b as strings.Compare orders a.Key() and
// b.Key(), without building either key when both local parts are ASCII
// and neither address is null. The key is lower(Local) + "@" + Domain,
// so it is compared byte by byte across that concatenation: '.' (0x2E)
// sorts before '@' (0x40), so "a.b@x" precedes "a@x", which a
// (local, domain) tuple order would put the other way round.
func CompareKeys(a, b Address) int {
	if a.IsNull() || b.IsNull() || !isASCII(a.Local) || !isASCII(b.Local) {
		return strings.Compare(a.Key(), b.Key())
	}
	la, lb := len(a.Local)+1+len(a.Domain), len(b.Local)+1+len(b.Domain)
	for k := 0; k < la && k < lb; k++ {
		if ca, cb := keyByte(a, k), keyByte(b, k); ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(la, lb)
}

// keyByte returns byte k of a.Key() for an ASCII local part.
func keyByte(a Address, k int) byte {
	switch {
	case k < len(a.Local):
		c := a.Local[k]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return c
	case k == len(a.Local):
		return '@'
	}
	return a.Domain[k-len(a.Local)-1]
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// Canonical returns the address in its canonical form: the local part
// lower-cased (Domain is already lower-case from parsing). Two addresses
// are the same mailbox exactly when their Canonical values are equal, so
// the canonical Address is usable directly as a comparable map key —
// the allocation-free replacement for string Key() keys on hot paths.
// For already-lower-case locals (the overwhelmingly common case)
// strings.ToLower returns its input and Canonical allocates nothing.
func (a Address) Canonical() Address {
	return Address{Local: strings.ToLower(a.Local), Domain: a.Domain}
}

// KeyEquals reports whether a and b canonicalise to the same mailbox,
// without allocating either key.
func (a Address) KeyEquals(b Address) bool {
	return a.Domain == b.Domain && strings.EqualFold(a.Local, b.Local)
}

const (
	maxLocalLen  = 64  // RFC 5321 §4.5.3.1.1
	maxDomainLen = 255 // RFC 5321 §4.5.3.1.2
	maxLabelLen  = 63
)

// atextSpecials are the printable ASCII characters beyond letters and
// digits that RFC 5322 permits in an unquoted local-part atom.
const atextSpecials = "!#$%&'*+-/=?^_`{|}~."

func isAtext(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	default:
		return strings.IndexByte(atextSpecials, c) >= 0
	}
}

// ParseAddress parses and validates s as an RFC 822 addr-spec
// ("local@domain"). It accepts an optional surrounding angle-bracket pair
// ("<local@domain>") as used on SMTP MAIL/RCPT lines, and the bare "<>"
// null path. It does not accept display names, comments, source routes,
// or quoted local parts containing spaces (the commercial product under
// study rejected those as malformed too).
func ParseAddress(s string) (Address, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "<") && strings.HasSuffix(s, ">") {
		s = s[1 : len(s)-1]
		if s == "" {
			return Null, nil
		}
	}
	if s == "" {
		return Address{}, ErrEmptyAddress
	}
	at := strings.LastIndexByte(s, '@')
	if at <= 0 || at == len(s)-1 {
		return Address{}, fmt.Errorf("%w: %q", ErrMalformed, s)
	}
	local, domain := s[:at], s[at+1:]
	if err := checkLocal(local); err != nil {
		return Address{}, fmt.Errorf("%w: %q", err, s)
	}
	domain = strings.ToLower(domain)
	if err := CheckDomain(domain); err != nil {
		return Address{}, fmt.Errorf("%w: %q", err, s)
	}
	return Address{Local: local, Domain: domain}, nil
}

// MustParseAddress is ParseAddress that panics on error. For tests and
// static configuration only.
func MustParseAddress(s string) Address {
	a, err := ParseAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

func checkLocal(local string) error {
	if local == "" || len(local) > maxLocalLen {
		return ErrBadLocalPart
	}
	if local[0] == '.' || local[len(local)-1] == '.' || strings.Contains(local, "..") {
		return ErrBadLocalPart
	}
	for i := 0; i < len(local); i++ {
		if !isAtext(local[i]) {
			return ErrBadLocalPart
		}
	}
	return nil
}

// CheckDomain validates a DNS domain name per RFC 1035 preferred syntax:
// dot-separated labels of letters, digits and hyphens, not starting or
// ending with a hyphen, at least two labels (the product treats bare
// hostnames as malformed since they can never resolve publicly).
func CheckDomain(domain string) error {
	if domain == "" || len(domain) > maxDomainLen {
		return ErrBadDomain
	}
	if !strings.Contains(domain, ".") {
		return ErrBadDomain
	}
	for rest, more := domain, true; more; {
		var l string
		l, rest, more = strings.Cut(rest, ".")
		if l == "" || len(l) > maxLabelLen {
			return ErrBadDomain
		}
		if l[0] == '-' || l[len(l)-1] == '-' {
			return ErrBadDomain
		}
		for i := 0; i < len(l); i++ {
			c := l[i]
			ok := c == '-' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !ok {
				return ErrBadDomain
			}
		}
	}
	return nil
}

// LocalSimilarity returns a similarity score in [0,1] between the local
// parts of two addresses, used by the campaign clustering of §4.1 to split
// clusters into "high sender similarity" (newsletters, e.g. dept-x.p@scn-1
// vs dept-x.q@scn-2) and "low sender similarity" (botnet spam). The score
// is 1 - d/max(len) where d is the Levenshtein distance.
func LocalSimilarity(a, b Address) float64 {
	la, lb := strings.ToLower(a.Local), strings.ToLower(b.Local)
	if la == lb {
		return 1
	}
	maxLen := len(la)
	if len(lb) > maxLen {
		maxLen = len(lb)
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(levenshtein(la, lb))/float64(maxLen)
}

// levenshtein computes the edit distance between two strings with a
// two-row dynamic program.
func levenshtein(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
