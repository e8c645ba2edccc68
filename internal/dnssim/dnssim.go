// Package dnssim implements an in-memory DNS for the simulation substrate.
//
// The paper's CR product depends on DNS in four places: the MTA-IN drops
// mail whose sender domain cannot be resolved (4.19% of traffic in the
// study), the reverse-DNS filter requires a PTR record for the client IP,
// the RBL filter queries DNS blocklists, and the offline SPF experiment of
// §5.2 evaluates TXT records. dnssim provides all of these against a zone
// store populated by the workload generator. The server itself always
// answers; temporary failures are injected around it by the fault seam
// (internal/faults/seam). A zone that no longer changes can be frozen
// (Server.Freeze): its lookups then take no lock at all.
package dnssim

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Lookup errors.
var (
	// ErrNXDomain is the authoritative "no such domain" answer.
	ErrNXDomain = errors.New("dnssim: NXDOMAIN")
	// ErrNoRecord means the domain exists but has no record of the
	// requested type (DNS NODATA).
	ErrNoRecord = errors.New("dnssim: no such record")
	// ErrTimeout is an injected temporary failure (SERVFAIL/timeout).
	ErrTimeout = errors.New("dnssim: query timed out")
	// ErrUnreachable is a nameserver that does not answer at all (the
	// "dns" outage fault), as opposed to one that answers slowly.
	ErrUnreachable = errors.New("dnssim: nameserver unreachable")
)

// lookupError is an authoritative negative answer: kind (ErrNXDomain or
// ErrNoRecord) about name, with the record type asked for when there is
// one. Its text is built only when printed, so a miss costs no
// formatting.
type lookupError struct {
	kind error
	rr   string // "A", "MX", "TXT", "PTR"; "" for a domain-level NXDOMAIN
	name string
}

func (e *lookupError) Error() string {
	if e.rr == "" {
		return e.kind.Error() + ": " + e.name
	}
	return e.kind.Error() + ": " + e.rr + " " + e.name
}

func (e *lookupError) Unwrap() error { return e.kind }

// IsTemporary reports whether err represents a temporary DNS failure, after
// which a caller may retry, as opposed to an authoritative negative answer.
func IsTemporary(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrUnreachable)
}

// DefaultQueryTimeout is the per-lookup deadline a resolver fault's
// injected latency is compared against: an answer slower than this is a
// timeout.
const DefaultQueryTimeout = 5 * time.Second

// MX is a mail-exchanger record.
type MX struct {
	Host string
	Pref int
}

// Resolver is the query interface the CR system components use. Server
// implements it and the fault seam wraps it; internal/dnscache, which
// no product binary runs, wraps it for the benchmark's probe.
type Resolver interface {
	// LookupA returns the IPv4 addresses of host.
	LookupA(host string) ([]string, error)
	// LookupMX returns the mail exchangers of domain, sorted by preference.
	LookupMX(domain string) ([]MX, error)
	// LookupPTR returns the reverse-DNS name of the dotted-quad ip.
	LookupPTR(ip string) (string, error)
	// LookupTXT returns the TXT strings of domain.
	LookupTXT(domain string) ([]string, error)
	// ResolvableErr reports whether domain has any record at all; a
	// non-nil error is a temporary failure, never "does not exist".
	ResolvableErr(domain string) (bool, error)
}

// zone holds all records for one domain name.
type zone struct {
	a   []string
	mx  []MX
	txt []string
}

// Server is the in-memory DNS database. It is safe for concurrent use:
// lookups take the read lock and mutations the write lock until Freeze,
// after which the zone is read-only and lookups take no lock, so
// concurrent readers write no shared memory at all.
type Server struct {
	mu     sync.RWMutex
	frozen atomic.Bool
	zones  map[string]*zone  // by lower-case domain
	ptr    map[string]string // by dotted-quad IP
	// gen counts zone-data mutations so caching layers (internal/dnscache)
	// can invalidate without subscribing to every mutation site.
	gen atomic.Uint64
}

// NewServer returns an empty DNS server.
func NewServer() *Server {
	return &Server{
		zones: make(map[string]*zone),
		ptr:   make(map[string]string),
	}
}

// Gen returns the zone-data generation, which increments on every
// record registration. A resolver cache compares generations on each
// lookup and flushes on change, so a new record is never masked by a
// stale cached answer.
func (s *Server) Gen() uint64 { return s.gen.Load() }

// Freeze makes the zone read-only: every later mutation panics, and
// lookups no longer take the lock. Call it once the zone is complete,
// before the readers start; freezing twice is harmless.
func (s *Server) Freeze() {
	s.mu.Lock()
	s.frozen.Store(true)
	s.mu.Unlock()
}

// lock takes the write lock for a mutation; a frozen zone panics.
func (s *Server) lock() {
	s.mu.Lock()
	if s.frozen.Load() {
		s.mu.Unlock()
		panic("dnssim: mutation of a frozen zone")
	}
}

func key(domain string) string { return strings.ToLower(strings.TrimSuffix(domain, ".")) }

func (s *Server) zoneFor(domain string, create bool) *zone {
	k := key(domain)
	z := s.zones[k]
	if z == nil && create {
		z = &zone{}
		s.zones[k] = z
	}
	return z
}

// AddA registers A records for host.
func (s *Server) AddA(host string, ips ...string) {
	s.lock()
	defer s.mu.Unlock()
	z := s.zoneFor(host, true)
	z.a = append(z.a, ips...)
	s.gen.Add(1)
}

// AddMX registers a mail exchanger for domain.
func (s *Server) AddMX(domain, host string, pref int) {
	s.lock()
	defer s.mu.Unlock()
	z := s.zoneFor(domain, true)
	z.mx = append(z.mx, MX{Host: host, Pref: pref})
	sort.SliceStable(z.mx, func(i, j int) bool { return z.mx[i].Pref < z.mx[j].Pref })
	s.gen.Add(1)
}

// AddPTR registers a reverse mapping for ip.
func (s *Server) AddPTR(ip, host string) {
	s.lock()
	defer s.mu.Unlock()
	s.ptr[ip] = key(host)
	s.gen.Add(1)
}

// AddTXT appends a TXT record for domain (e.g. an SPF policy).
func (s *Server) AddTXT(domain, txt string) {
	s.lock()
	defer s.mu.Unlock()
	z := s.zoneFor(domain, true)
	z.txt = append(z.txt, txt)
	s.gen.Add(1)
}

// ResolvableErr implements Resolver. A domain with any record at all,
// even only an MX, is resolvable: the check the MTA-IN applies to sender
// domains ("Unable to resolve the domain", 4.19% of drops in the study).
// The in-memory zone always answers, so the error is always nil; a
// resolver fault wraps the server to return one (seam.Resolver).
func (s *Server) ResolvableErr(domain string) (bool, error) {
	k := key(domain)
	if !s.frozen.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	_, ok := s.zones[k]
	return ok, nil
}

func (s *Server) pre(domain string) (*zone, error) {
	z := s.zones[key(domain)]
	if z == nil {
		return nil, &lookupError{kind: ErrNXDomain, name: domain}
	}
	return z, nil
}

// LookupA implements Resolver.
func (s *Server) LookupA(host string) ([]string, error) {
	if !s.frozen.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	z, err := s.pre(host)
	if err != nil {
		return nil, err
	}
	if len(z.a) == 0 {
		return nil, &lookupError{kind: ErrNoRecord, rr: "A", name: host}
	}
	out := make([]string, len(z.a))
	copy(out, z.a)
	return out, nil
}

// LookupMX implements Resolver.
func (s *Server) LookupMX(domain string) ([]MX, error) {
	if !s.frozen.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	z, err := s.pre(domain)
	if err != nil {
		return nil, err
	}
	if len(z.mx) == 0 {
		return nil, &lookupError{kind: ErrNoRecord, rr: "MX", name: domain}
	}
	out := make([]MX, len(z.mx))
	copy(out, z.mx)
	return out, nil
}

// LookupPTR implements Resolver.
func (s *Server) LookupPTR(ip string) (string, error) {
	if !s.frozen.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	h, ok := s.ptr[ip]
	if !ok {
		return "", &lookupError{kind: ErrNXDomain, rr: "PTR", name: ip}
	}
	return h, nil
}

// LookupTXT implements Resolver.
func (s *Server) LookupTXT(domain string) ([]string, error) {
	if !s.frozen.Load() {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	z, err := s.pre(domain)
	if err != nil {
		return nil, err
	}
	if len(z.txt) == 0 {
		return nil, &lookupError{kind: ErrNoRecord, rr: "TXT", name: domain}
	}
	out := make([]string, len(z.txt))
	copy(out, z.txt)
	return out, nil
}

// RegisterMailDomain is a convenience that wires up the records a
// well-configured mail domain has: an A record for the bare domain, an MX
// pointing at mail.<domain>, an A record for that host, and a PTR mapping
// its IP back. Returns the MX host IP.
func (s *Server) RegisterMailDomain(domain, ip string) string {
	mxHost := "mail." + key(domain)
	s.AddA(domain, ip)
	s.AddMX(domain, mxHost, 10)
	s.AddA(mxHost, ip)
	s.AddPTR(ip, mxHost)
	return ip
}
