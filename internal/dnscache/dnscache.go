// Package dnscache puts a TTL cache with negative caching and
// single-flight collapse in front of a resolver, and an equivalent
// memoized lookup in front of an RBL provider.
//
// Real MTAs lean on resolver caches: sender-infrastructure lookups are
// dominated by repeated queries for the same handful of domains and IPs
// (the same observation drives the aggregated-history spam detectors in
// the literature). No product binary runs either cache: cmd/crserver's
// zone is static once it boots, and the simulated fleet's zone data is
// an in-memory map fixed once the fleet is built, its blocklist changing
// only at epoch barriers, so a cache in front of either would only add
// lookups (DESIGN.md §8). The benchmark module's traced probe is the one
// caller.
//
// Coherence rules (see DESIGN.md §8):
//
//   - Entries expire on the *virtual* clock, never the wall clock.
//   - Both backends expose a generation counter that increments on every
//     mutation (dnssim.Server.Gen: record registration; rbl.Provider.Gen:
//     listing/delisting events). Each
//     lookup compares generations and flushes the whole cache on change,
//     so a cached answer can never mask a mutation.
//   - Temporary failures (timeouts, injected outages) are never cached:
//     the caller must see every one, or fault injection would be
//     silently absorbed. Authoritative negatives (NXDOMAIN / no such
//     record) are cached with a shorter TTL, as real resolvers do
//     (RFC 2308).
package dnscache

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/rbl"
)

// Default lifetimes, on the cache's clock.
const (
	DefaultTTL    = 30 * time.Minute
	DefaultNegTTL = 10 * time.Minute
)

// Options configures a Cache.
type Options struct {
	// Clock supplies the (virtual) time entries age against. Required.
	Clock clock.Clock
	// TTL is the positive-answer lifetime; DefaultTTL if zero.
	TTL time.Duration
	// NegTTL is the authoritative-negative lifetime; DefaultNegTTL if zero.
	NegTTL time.Duration
	// Gen, when non-nil, is polled on every lookup; a change flushes the
	// entire cache. Wire it to dnssim.Server.Gen so a new record
	// invalidates immediately.
	Gen func() uint64
}

// entry holds one cached answer. Fields are written only by the fetching
// goroutine while it holds mu, and are immutable once the atomic ready
// flag is set (the store publishes them); expiry replaces the entry
// rather than mutating it, so a reader that observes ready may read
// every field without holding any lock (but must not mutate the answer
// slices).
type entry struct {
	mu    sync.Mutex
	ready atomic.Bool
	neg   bool      // cached negative (uses NegTTL)
	exp   time.Time // expiry on the virtual clock
	err   error     // cached authoritative error (NXDOMAIN / no record)

	list []string // A / TXT answers
	mxs  []dnssim.MX
	host string // PTR answer
	ok   bool   // Resolvable answer
}

// ckey identifies one cached question: a record kind plus the queried
// name. A comparable struct key avoids the "a:"+host style concatenation
// the old flat map needed on every lookup.
type ckey struct {
	kind uint8 // one of the q* constants
	name string
}

// Query kinds.
const (
	qA uint8 = iota
	qMX
	qPTR
	qTXT
	qResolvable
)

// cacheStripes is the lock-stripe count. Lookups hash the key to a
// stripe, so concurrent lanes resolving different names proceed without
// contending on one cache-wide mutex.
const cacheStripes = 8

// cacheShard is one lock stripe with its own generation word: stripes
// notice a backend mutation independently, each flushing its own map on
// first touch after the change. The map is read under mu.RLock on the
// hit fast path and written under mu.Lock; gen is atomic so the fast
// path can compare it without any lock.
type cacheShard struct {
	mu      sync.RWMutex
	gen     atomic.Uint64
	entries map[ckey]*entry
}

// Cache is a read-through TTL cache over a dnssim.Resolver. It
// implements dnssim.Resolver itself, so it can be dropped in anywhere a
// resolver is accepted — core.Engine, the reverse-DNS filter,
// spf.Checker, the workload generator.
type Cache struct {
	backend dnssim.Resolver
	opts    Options

	shards [cacheStripes]cacheShard
}

// New returns a cache over backend. Options.Clock is required.
func New(backend dnssim.Resolver, opts Options) *Cache {
	if opts.Clock == nil {
		panic("dnscache: Options.Clock is required")
	}
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.NegTTL <= 0 {
		opts.NegTTL = DefaultNegTTL
	}
	c := &Cache{backend: backend, opts: opts}
	var gen uint64
	if opts.Gen != nil {
		gen = opts.Gen()
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[ckey]*entry)
		c.shards[i].gen.Store(gen)
	}
	return c
}

// shardFor maps a key to its stripe (FNV-1a over kind + name).
func (c *Cache) shardFor(key ckey) *cacheShard {
	h := uint32(2166136261)
	h = (h ^ uint32(key.kind)) * 16777619
	for i := 0; i < len(key.name); i++ {
		h = (h ^ uint32(key.name[i])) * 16777619
	}
	return &c.shards[h%cacheStripes]
}

// checkGenLocked flushes the shard if the backend generation moved.
// Caller holds sh.mu.
func (c *Cache) checkGenLocked(sh *cacheShard) {
	if c.opts.Gen == nil {
		return
	}
	if g := c.opts.Gen(); g != sh.gen.Load() {
		sh.gen.Store(g)
		clear(sh.entries)
	}
}

// do returns the live entry for key, fetching it at most once per
// expiry/flush regardless of how many goroutines ask concurrently
// (per-entry-mutex single-flight: the fetcher publishes the entry with
// its lock held, so same-key lookups queue behind the one backend call).
func (c *Cache) do(key ckey, fetch func(*entry) error) (*entry, error) {
	sh := c.shardFor(key)
	// Hit fast path: a ready, unexpired entry in a generation-current
	// shard — the overwhelmingly common case — is served under the read
	// lock alone, so concurrent lanes resolving the same hot names never
	// serialize. The second Gen read after the map lookup closes the
	// race with a concurrent mutation: if the generation is still
	// unchanged, the entry provably predates no mutation.
	if c.opts.Gen == nil || c.opts.Gen() == sh.gen.Load() {
		sh.mu.RLock()
		e := sh.entries[key]
		sh.mu.RUnlock()
		if e != nil && e.ready.Load() &&
			c.opts.Clock.Now().Before(e.exp) &&
			(c.opts.Gen == nil || c.opts.Gen() == sh.gen.Load()) {
			return e, e.err
		}
	}
	for {
		sh.mu.Lock()
		c.checkGenLocked(sh)
		e := sh.entries[key]
		if e == nil {
			e = &entry{}
			e.mu.Lock() // we are the fetcher; publish locked
			sh.entries[key] = e
			sh.mu.Unlock()

			err := fetch(e)
			if err != nil && dnssim.IsTemporary(err) {
				// Never cache a transient failure: unpublish so the
				// next lookup retries the backend, and surface it.
				e.mu.Unlock()
				sh.mu.Lock()
				if sh.entries[key] == e {
					delete(sh.entries, key)
				}
				sh.mu.Unlock()
				return nil, err
			}
			e.err = err
			e.neg = e.neg || err != nil
			ttl := c.opts.TTL
			if e.neg {
				ttl = c.opts.NegTTL
			}
			e.exp = c.opts.Clock.Now().Add(ttl)
			e.ready.Store(true)
			e.mu.Unlock()
			return e, err
		}
		sh.mu.Unlock()

		e.mu.Lock() // blocks while a fetch for this key is in flight
		if !e.ready.Load() {
			// The fetcher hit a temporary error and unpublished the
			// entry while we waited; retry from the top.
			e.mu.Unlock()
			continue
		}
		expired := !c.opts.Clock.Now().Before(e.exp)
		err := e.err
		e.mu.Unlock()

		if expired {
			sh.mu.Lock()
			if sh.entries[key] == e {
				delete(sh.entries, key)
			}
			sh.mu.Unlock()
			continue
		}
		return e, err
	}
}

// LookupA implements dnssim.Resolver. Callers must not mutate the
// returned slice.
func (c *Cache) LookupA(host string) ([]string, error) {
	e, err := c.do(ckey{qA, host}, func(e *entry) error {
		v, err := c.backend.LookupA(host)
		e.list = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.list, nil
}

// LookupMX implements dnssim.Resolver. Callers must not mutate the
// returned slice.
func (c *Cache) LookupMX(domain string) ([]dnssim.MX, error) {
	e, err := c.do(ckey{qMX, domain}, func(e *entry) error {
		v, err := c.backend.LookupMX(domain)
		e.mxs = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.mxs, nil
}

// LookupPTR implements dnssim.Resolver.
func (c *Cache) LookupPTR(ip string) (string, error) {
	e, err := c.do(ckey{qPTR, ip}, func(e *entry) error {
		v, err := c.backend.LookupPTR(ip)
		e.host = v
		return err
	})
	if err != nil {
		return "", err
	}
	return e.host, nil
}

// LookupTXT implements dnssim.Resolver. Callers must not mutate the
// returned slice.
func (c *Cache) LookupTXT(domain string) ([]string, error) {
	e, err := c.do(ckey{qTXT, domain}, func(e *entry) error {
		v, err := c.backend.LookupTXT(domain)
		e.list = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.list, nil
}

// ResolvableErr caches the MTA-IN sender-domain probe. An unresolvable
// domain is the NXDOMAIN case and is cached with the negative TTL;
// temporary resolver failures pass through uncached.
func (c *Cache) ResolvableErr(domain string) (bool, error) {
	e, err := c.do(ckey{qResolvable, domain}, func(e *entry) error {
		ok, err := c.backend.ResolvableErr(domain)
		e.ok = ok
		e.neg = err == nil && !ok
		return err
	})
	if err != nil {
		return false, err
	}
	return e.ok, nil
}

// rblStripes is the RBL memo's lock-stripe count: concurrent lanes
// querying different botnet IPs proceed without a cache-wide mutex.
const rblStripes = 8

// rblShard is one lock stripe of the RBL memo with its own generation
// word: a stripe flushes on first touch after a provider mutation,
// exactly like the DNS cache's shards. The map is read under mu.RLock
// on the hit fast path and written under mu.Lock; gen is atomic so the
// fast path can compare it without any lock.
type rblShard struct {
	mu      sync.RWMutex
	gen     atomic.Uint64
	entries map[string]rblEntry
}

// RBLCache memoizes rbl.Provider listing answers. It satisfies the
// filters.RBLBackend surface, so filters.NewRBL accepts it in place of
// the raw provider. Entries carry a TTL on the virtual clock and every
// lookup compares the provider's generation counter, flushing the
// touched stripe on change: listing mutations in a standalone deployment
// (cmd/crserver) arrive at arbitrary times.
type RBLCache struct {
	p   *rbl.Provider
	clk clock.Clock
	ttl time.Duration

	shards [rblStripes]rblShard
}

type rblEntry struct {
	listed bool
	exp    time.Time
}

// NewRBL returns a memoizing cache over p (TTL + generation flush).
// ttl <= 0 selects DefaultTTL.
func NewRBL(p *rbl.Provider, clk clock.Clock, ttl time.Duration) *RBLCache {
	if clk == nil {
		panic("dnscache: NewRBL requires a clock")
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	c := &RBLCache{p: p, clk: clk, ttl: ttl}
	gen := p.Gen()
	for i := range c.shards {
		c.shards[i].entries = make(map[string]rblEntry)
		c.shards[i].gen.Store(gen)
	}
	return c
}

// Name returns the underlying provider's name.
func (c *RBLCache) Name() string { return c.p.Name() }

// shardFor maps an IP to its stripe (FNV-1a).
func (c *RBLCache) shardFor(ip string) *rblShard {
	h := uint32(2166136261)
	for i := 0; i < len(ip); i++ {
		h = (h ^ uint32(ip[i])) * 16777619
	}
	return &c.shards[h%rblStripes]
}

// Query returns the memoized listing state for ip. It never fails: the
// provider always answers.
func (c *RBLCache) Query(ip string) (bool, error) {
	sh := c.shardFor(ip)
	// Hit fast path: entries are immutable values replaced wholesale by
	// a flush, so a generation-current hit needs only the read lock and
	// concurrent callers querying the memo never serialize.
	if c.p.Gen() == sh.gen.Load() {
		sh.mu.RLock()
		e, ok := sh.entries[ip]
		sh.mu.RUnlock()
		if ok && c.clk.Now().Before(e.exp) && c.p.Gen() == sh.gen.Load() {
			return e.listed, nil
		}
	}
	sh.mu.Lock()
	if g := c.p.Gen(); g != sh.gen.Load() {
		sh.gen.Store(g)
		clear(sh.entries)
	}
	sh.mu.Unlock()
	gen := c.p.Gen()

	listed := c.p.IsListed(ip)

	// Store only if the provider did not mutate while we queried;
	// otherwise our answer may already be stale.
	if c.p.Gen() == gen {
		e := rblEntry{listed: listed, exp: c.clk.Now().Add(c.ttl)}
		sh.mu.Lock()
		sh.entries[ip] = e
		sh.mu.Unlock()
	}
	return listed, nil
}
