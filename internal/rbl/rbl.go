// Package rbl simulates the DNS-blocklist ecosystem the paper's CR product
// both consumes and suffers from.
//
// Two roles:
//
//   - As a *filter input* (§2, §5.2): the product queries an IP blacklist
//     (SpamHaus in the study) for every gray message's client IP and drops
//     listed senders — 4,973,755 of the study's messages.
//
//   - As a *hazard* (§5.1): challenges sent in response to spoofed senders
//     can land in spamtraps; trap operators feed blocklists, so the
//     challenge server's own IP gets listed and its outgoing mail bounced.
//     The paper probes eight public lists (Barracuda, SpamCop, SpamHaus,
//     Cannibal, Orbit, SORBS, CBL, Surriel) every 4 hours for 132 days.
//
// Provider models one blocklist with a trap-driven listing policy and
// TTL-based delisting. Trap hits are reported through a TrapRegistry which
// fans them out to all subscribed providers, mirroring how real traps feed
// multiple lists.
package rbl

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

// Policy controls how a provider converts spamtrap hits into listings.
type Policy struct {
	// HitThreshold is the number of trap hits within Window required to
	// list an IP. Real lists differ wildly in sensitivity; the fleet
	// experiment instantiates providers across this spectrum.
	HitThreshold int
	// Window is the sliding window over which hits are counted.
	Window time.Duration
	// ListingTTL is how long a listing lasts without further hits. Further
	// hits while listed extend the listing (as CBL-style lists do).
	ListingTTL time.Duration
}

// DefaultPolicy resembles a mid-sensitivity list: three hits in a day,
// listed for three days.
func DefaultPolicy() Policy {
	return Policy{HitThreshold: 3, Window: 24 * time.Hour, ListingTTL: 72 * time.Hour}
}

// DefaultQueryTimeout is the per-query deadline a blocklist fault's
// injected latency is compared against.
const DefaultQueryTimeout = 3 * time.Second

// Provider is one simulated DNS blocklist. It is safe for concurrent
// use. Lookups (IsListed, Query) are pure reads under an RWMutex read
// lock; all listing-state mutations happen in ReportTrapHit, AddStatic
// and Sweep, so concurrent readers never serialize on each other — the
// property the fleet's parallel lanes lean on.
type Provider struct {
	name   string
	policy Policy
	clk    clock.Clock

	mu       sync.RWMutex
	hits     map[string][]time.Time // recent trap hits per IP
	listings map[string]time.Time   // IP -> listed-until
	manual   map[string]bool        // permanently listed (known spammers)
	// gen counts listing-state mutations (new listings, sweeps, static
	// adds) so a memoizing lookup layer can invalidate on blacklist/delist
	// events instead of polling.
	gen atomic.Uint64
}

// NewProvider returns a provider with the given name and policy.
func NewProvider(name string, policy Policy, clk clock.Clock) *Provider {
	return &Provider{
		name:     name,
		policy:   policy,
		clk:      clk,
		hits:     make(map[string][]time.Time),
		listings: make(map[string]time.Time),
		manual:   make(map[string]bool),
	}
}

// Name returns the provider's name.
func (p *Provider) Name() string { return p.name }

// Gen returns the listing-state generation; it increments whenever the
// answer IsListed could give for some IP changes (new listing, sweep,
// static add). dnscache.RBLCache, which only the benchmark's probe
// runs, compares generations per lookup and uses it as a
// store-after-miss guard.
func (p *Provider) Gen() uint64 { return p.gen.Load() }

// Query is IsListed on the fallible lookup surface the CR filter chain
// uses (filters.RBLBackend). The provider itself always answers; an
// unreachable or stale blocklist is a fault plan's "rbl:<name>" target,
// applied around the backend by internal/faults/seam.
func (p *Provider) Query(ip string) (bool, error) { return p.IsListed(ip), nil }

// AddStatic permanently lists ip — used to seed the providers with the
// "known spammer" population that the product's RBL filter catches.
func (p *Provider) AddStatic(ip string) {
	p.mu.Lock()
	p.manual[ip] = true
	p.mu.Unlock()
	p.gen.Add(1)
}

// ReportTrapHit records that ip delivered a message to a spamtrap and
// lists the IP if the policy threshold is crossed.
func (p *Provider) ReportTrapHit(ip string) {
	now := p.clk.Now()
	p.mu.Lock()
	defer p.mu.Unlock()

	// Slide the window.
	recent := p.hits[ip][:0]
	for _, t := range p.hits[ip] {
		if now.Sub(t) <= p.policy.Window {
			recent = append(recent, t)
		}
	}
	recent = append(recent, now)
	p.hits[ip] = recent

	if until, listed := p.listings[ip]; listed && until.After(now) {
		// Already listed: extend. No generation bump — extending a live
		// listing further into the future cannot change the answer Query
		// gives for any IP right now, so cached memos stay valid. (Bumping
		// here used to flush the whole RBL cache on nearly every trap hit
		// from an already-listed botnet IP, collapsing the hit rate to ~5%.)
		p.listings[ip] = now.Add(p.policy.ListingTTL)
		return
	}
	if len(recent) >= p.policy.HitThreshold {
		p.listings[ip] = now.Add(p.policy.ListingTTL)
		p.gen.Add(1)
	}
}

// IsListed reports whether ip is currently listed. It is a pure read: an
// expired listing answers false immediately, and its removal (with its
// generation bump) is deferred to the next Sweep — so concurrent
// lookups share a read lock and never mutate provider state.
func (p *Provider) IsListed(ip string) bool {
	now := p.clk.Now()
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.manual[ip] {
		return true
	}
	until, ok := p.listings[ip]
	return ok && until.After(now)
}

// Sweep eagerly removes every listing that has expired at now and
// returns the delisted IPs sorted. A single generation bump covers the
// whole batch, so cache layers invalidate once per sweep instead of once
// per lazy delist. The fleet calls Sweep at fired epoch barriers (while
// every lane is parked); standalone deployments may call it from a
// housekeeping tick or rely on the pure-read expiry in IsListed alone.
func (p *Provider) Sweep(now time.Time) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for ip, until := range p.listings {
		if !until.After(now) {
			delete(p.listings, ip)
			out = append(out, ip)
		}
	}
	if len(out) > 0 {
		sort.Strings(out)
		p.gen.Add(1)
	}
	return out
}

// TrapRegistry is the set of spamtrap addresses and the providers they
// feed. Trap addresses look like ordinary mailboxes; a CR system cannot
// tell it is challenging a trap — that is precisely the §5.1 hazard.
//
// The set is keyed by canonical address (mail.Address.Canonical), so a
// lookup builds no string. Until Freeze, lookups take the read lock and
// AddTrap the write lock; after it the set is read-only and IsTrap takes
// no lock, so concurrent readers write no shared memory.
type TrapRegistry struct {
	mu        sync.RWMutex
	frozen    atomic.Bool
	traps     map[mail.Address]bool // by canonical address
	providers []*Provider
	hits      atomic.Int64
}

// NewTrapRegistry returns an empty registry feeding the given providers.
func NewTrapRegistry(providers ...*Provider) *TrapRegistry {
	return &TrapRegistry{traps: make(map[mail.Address]bool), providers: providers}
}

// Freeze makes the trap set read-only: a later AddTrap panics, and
// lookups no longer take the lock. Call it once the set is complete,
// before the readers start; freezing twice is harmless.
func (t *TrapRegistry) Freeze() {
	t.mu.Lock()
	t.frozen.Store(true)
	t.mu.Unlock()
}

// AddTrap registers addr as a spamtrap. It panics after Freeze.
func (t *TrapRegistry) AddTrap(addr mail.Address) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen.Load() {
		panic("rbl: AddTrap on a frozen trap registry")
	}
	t.traps[addr.Canonical()] = true
}

// IsTrap reports whether addr is a registered trap.
func (t *TrapRegistry) IsTrap(addr mail.Address) bool {
	if !t.frozen.Load() {
		t.mu.RLock()
		defer t.mu.RUnlock()
	}
	return t.traps[addr.Canonical()]
}

// Hit records a delivery from srcIP to the trap addr, feeding every
// subscribed provider. It is a no-op if addr is not a trap. Returns
// whether a trap was hit.
func (t *TrapRegistry) Hit(addr mail.Address, srcIP string) bool {
	if !t.IsTrap(addr) {
		return false
	}
	t.hits.Add(1)
	for _, p := range t.providers {
		p.ReportTrapHit(srcIP)
	}
	return true
}

// Hits returns the total number of trap hits recorded.
func (t *TrapRegistry) Hits() int64 { return t.hits.Load() }

// Checker reproduces the paper's §5.1 measurement script: it polls a set
// of providers for a set of IPs on a fixed period (the paper used 4 hours
// for 132 days) and accumulates, per IP, the number of polls at which the
// IP appeared on at least one list.
type Checker struct {
	providers []*Provider

	mu      sync.Mutex
	polls   int
	listedN map[string]int // IP -> #polls listed on >=1 provider
	byProv  map[string]map[string]int
}

// NewChecker returns a Checker over the given providers.
func NewChecker(providers ...*Provider) *Checker {
	return &Checker{
		providers: providers,
		listedN:   make(map[string]int),
		byProv:    make(map[string]map[string]int),
	}
}

// Poll queries every provider for every IP once, updating counters.
// Duplicate IPs in the slice (e.g. a shared challenge/mail address) are
// counted once.
func (c *Checker) Poll(ips []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	seen := make(map[string]bool, len(ips))
	for _, ip := range ips {
		if seen[ip] {
			continue
		}
		seen[ip] = true
		any := false
		for _, p := range c.providers {
			if p.IsListed(ip) {
				any = true
				m := c.byProv[p.Name()]
				if m == nil {
					m = make(map[string]int)
					c.byProv[p.Name()] = m
				}
				m[ip]++
			}
		}
		if any {
			c.listedN[ip]++
		}
	}
}

// ListedFraction returns, for ip, the fraction of polls at which it was
// listed on at least one provider.
func (c *Checker) ListedFraction(ip string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls == 0 {
		return 0
	}
	return float64(c.listedN[ip]) / float64(c.polls)
}

// ListedDays converts the listed-poll count for ip into equivalent days
// given the polling period.
func (c *Checker) ListedDays(ip string, period time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.listedN[ip]) * period.Hours() / 24
}

// StandardProviders builds the eight-list panel from §5.1 with policies
// spanning aggressive (CBL-like, 1 hit) to conservative (5 hits). The
// returned slice order matches the paper's enumeration.
func StandardProviders(clk clock.Clock) []*Provider {
	mk := func(name string, thr int, window, ttl time.Duration) *Provider {
		return NewProvider(name, Policy{HitThreshold: thr, Window: window, ListingTTL: ttl}, clk)
	}
	return []*Provider{
		mk("barracuda", 2, 24*time.Hour, 48*time.Hour),
		mk("spamcop", 2, 24*time.Hour, 24*time.Hour),
		mk("spamhaus", 3, 24*time.Hour, 72*time.Hour),
		mk("cannibal", 1, 48*time.Hour, 7*24*time.Hour),
		mk("orbit", 4, 24*time.Hour, 48*time.Hour),
		mk("sorbs", 3, 48*time.Hour, 96*time.Hour),
		mk("cbl", 1, 24*time.Hour, 24*time.Hour),
		mk("surriel", 5, 24*time.Hour, 48*time.Hour),
	}
}
