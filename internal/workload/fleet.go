package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/dnscache"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/filters"
	"repro/internal/greylist"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/overload"
	"repro/internal/rbl"
	"repro/internal/reputation"
	"repro/internal/resilience"
	"repro/internal/simnet"
	"repro/internal/spf"
	"repro/internal/whitelist"
)

// Config parameterises the synthetic world.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Profiles are the companies to instantiate.
	Profiles []CompanyProfile
	// ScaleVolume multiplies every company's DailyVolume (use <1 for
	// fast experiment runs; the proportions are volume-invariant).
	ScaleVolume float64
	// Workers is the number of goroutines Run advances lanes on:
	// companies advance in parallel, claiming lanes off one shared
	// counter and rendezvousing at hourly epoch edges where cross-lane
	// barriers fire only for epochs with staged effects (see
	// ledger.go). 0 means GOMAXPROCS; 1 runs the same epoch loop
	// serially. Results are identical for every value — each company
	// owns its clock, scheduler and RNG streams, and cross-company
	// effects apply only at barriers in company-name order. A FaultPlan
	// forces 1 (the injector draws from one shared RNG whose order must
	// stay reproducible).
	Workers int

	// World population.
	LegitDomains        int // partner domains hosting real correspondents
	LegitPerDomain      int
	InnocentDomains     int // bystander domains spam spoofs
	InnocentPerDomain   int
	RobotPerDomain      int
	UnreachableDomains  int     // domains whose mail servers never answer
	UnresolvableDomains int     // spoofed domains without DNS at all
	TrapCount           int     // spamtrap addresses scattered on innocent domains
	ConsultRBLFraction  float64 // fraction of remote domains screening by RBL

	// SPF publication rates (2010-era adoption was partial, which is why
	// the paper's Figure 12 what-if removes only a slice of challenges).
	LegitSPFRate    float64
	InnocentSPFRate float64

	// Campaigns.
	NewsletterCampaigns int
	SpamCampaigns       int
	SpamVirusProb       float64
	SpoofMix            SpoofMix

	// Botnet (spam delivery infrastructure).
	BotnetSize   int
	BotnetNoPTR  float64 // fraction without reverse DNS
	BotnetListed float64 // fraction (of PTR-having) statically on the filter RBL

	// UseSPFFilter adds the §5.2 SPF check to every engine's filter
	// chain (the studied product did NOT have it; the paper evaluated it
	// offline — this flag turns on the online configuration for the
	// ablation).
	UseSPFFilter bool
	// ChallengeCapPerHour, when >0, applies the per-engine hourly
	// challenge rate cap (the §6 attack mitigation).
	ChallengeCapPerHour int
	// UseReputation gives every engine a sender-reputation store: a
	// hardened fail-open reputation filter heads the chain (suspect
	// senders dropped before the probe filters run) and trusted senders
	// skip the probe filters entirely via the engine fast path. Off by
	// default so the calibrated baseline stays untouched; the reputation
	// ablation flips it.
	UseReputation bool
	// UseGreylisting puts an SMTP greylist in front of every engine:
	// first-contact tuples are temp-rejected; real MTAs retry (the
	// message arrives ~delay later), botnet cannons mostly do not. An
	// ablation for the §5.2 "which other techniques" question.
	UseGreylisting bool
	// SpamRetryProb is the probability a botnet delivery retries after a
	// greylist 451 (fire-and-forget cannons rarely do).
	SpamRetryProb float64

	// User behaviour.
	DigestAuthorizeProb float64 // authorize a wanted pending message
	DigestDeleteProb    float64 // delete an unwanted pending message

	// EmitDSNs routes challenge bounces through real RFC 3464 DSN
	// messages delivered back to each company's MTA-IN, so the engines
	// learn challenge fates from their own DSN feedback loop instead of
	// the direct transport callback (see simnet.Config.EmitDSNs).
	EmitDSNs bool

	// FaultPlan, when non-nil, activates the internal/faults injection
	// layer across the simulated infrastructure: the DNS resolver, every
	// blocklist provider, and the scanner backends all consult one seeded
	// injector, so a run under faults is exactly reproducible.
	FaultPlan *faults.Plan

	// Overload, when non-nil, puts an admission controller in front of
	// every engine: messages pass overload.Controller.Submit before
	// Receive, shed mail is tempfailed (451) and retried per the sender's
	// MTA model — real senders always retry, bots with SpamRetryProb —
	// and the engine sheds probe-filter work while the admission queue is
	// pressured. Name and Clock are overridden per company.
	Overload *overload.Config
	// SurgeBursts schedules windows of extra botnet spam on top of the
	// profile volumes (Intensity 10 ≈ the paper-scale 10× campaign
	// burst). Bursts are injected per lane, so runs stay worker-count
	// invariant.
	SurgeBursts []SurgeBurst
	// SurgePlan, when non-nil, drives per-message engine service latency
	// through the "surge" fault target. Unlike FaultPlan it does NOT
	// force serial execution: every lane derives its own injector from
	// (Seed, company), so decisions are lane-local and deterministic for
	// any worker count.
	SurgePlan *faults.Plan

	// Measurement.
	CheckerPeriod time.Duration // §5.1 blacklist polling period
	// LogSink, when non-nil, receives every engine's decision events
	// (the maillog stream the paper's measurement pipeline parsed).
	// Called from the simulation goroutine; must be fast.
	LogSink func(maillog.Event)
}

// DefaultConfig returns a Config with n companies and the stock world,
// calibrated per DESIGN.md §4.
func DefaultConfig(seed int64, n int) Config {
	rng := rand.New(rand.NewSource(seed))
	return Config{
		Seed:                seed,
		Profiles:            DefaultProfiles(n, rng),
		ScaleVolume:         1,
		LegitDomains:        14,
		LegitPerDomain:      120,
		InnocentDomains:     30,
		InnocentPerDomain:   40,
		RobotPerDomain:      4,
		UnreachableDomains:  12,
		UnresolvableDomains: 12,
		TrapCount:           60,
		ConsultRBLFraction:  0.5,
		LegitSPFRate:        0.6,
		InnocentSPFRate:     0.08,
		NewsletterCampaigns: 8,
		SpamCampaigns:       48,
		SpamVirusProb:       0.02,
		SpoofMix:            DefaultSpoofMix(),
		BotnetSize:          400,
		BotnetNoPTR:         0.30,
		BotnetListed:        0.66,
		DigestAuthorizeProb: 0.5,
		DigestDeleteProb:    0.7,
		SpamRetryProb:       0.06,
		CheckerPeriod:       4 * time.Hour,
	}
}

// botIP is one spam-sending host.
type botIP struct {
	ip     string
	hasPTR bool
	listed bool
}

// GrayEntry is the per-challenged-message context the offline SPF
// experiment (Figure 12) joins against challenge records.
type GrayEntry struct {
	MsgID    string
	From     mail.Address
	ClientIP string
	Subject  string
}

// Fleet is the fully-assembled world: simulated clock, DNS, blocklists,
// remote servers, companies, campaigns and the day-loop driver.
type Fleet struct {
	Cfg       Config
	Clk       *clock.Sim
	Sched     *clock.Scheduler
	DNS       *dnssim.Server
	Providers []*rbl.Provider
	Traps     *rbl.TrapRegistry
	Net       *simnet.Network
	Checker   *rbl.Checker
	Digests   *digest.Book
	Companies []*simnet.Company
	Start     time.Time
	// Injector is the active fault source (nil without Config.FaultPlan).
	Injector *faults.Set
	// DNSCache fronts DNS for every engine, filter and the workload
	// generator (nil under a FaultPlan: injected resolver faults must
	// reach every consumer un-cached).
	DNSCache *dnscache.Cache
	// RBLCache memoizes the filter blocklist's Query answers (nil under
	// a FaultPlan, for the same reason).
	RBLCache *dnscache.RBLCache

	lanes   []*companyLane  // company-name-sorted execution lanes
	resolve dnssim.Resolver // DNSCache when enabled, else DNS
	outIPs  []string        // cached allOutIPs result

	rng        *rand.Rand
	profiles   map[string]CompanyProfile
	users      map[string][]mail.Address       // company -> protected users
	seededWL   map[mail.Address][]mail.Address // canonical user -> seeded contacts
	seededBL   map[mail.Address][]mail.Address // canonical user -> blacklisted senders
	rejectedBy map[string]mail.Address         // company -> its rejected sender
	activity   map[mail.Address]float64        // canonical user -> outbound-activity multiplier
	greylists  map[string]*greylist.Store      // company -> greylist (when enabled)
	reputation map[string]*reputation.Store    // company -> reputation store (when enabled)

	legitPool     []mail.Address
	innocents     []mail.Address
	robots        []mail.Address
	trapAddrs     []mail.Address
	unreachable   []string // domains
	unresolvable  []string // domains
	foreignDomain string
	botnet        []botIP
	spamCamps     []*Campaign
	newsCamps     []*Campaign

	// mu guards the merged shared state below. Lanes read it mid-epoch
	// (laneTruth fallback) under the read lock; the only writers are the
	// barrier merge and the day counter, which run with all lanes parked.
	mu          sync.RWMutex
	truth       map[string]Class
	grayLog     map[string]GrayEntry
	classCounts map[Class]int64
	day         int

	// ledger is the sparse-barrier bookkeeping (ledger.go): epoch,
	// fired/skipped-barrier and trap-hit counters plus the shared-clock
	// watermark.
	ledger syncLedger
}

// FleetStart is the simulation epoch, matching the study's first
// monitored day (July 2010).
var FleetStart = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

// NewFleet builds the world. The heavy lifting — DNS zones, remote
// servers, mailbox populations, whitelist seeding — happens here; no
// traffic flows until Run.
func NewFleet(cfg Config) *Fleet {
	if cfg.ScaleVolume <= 0 {
		cfg.ScaleVolume = 1
	}
	f := &Fleet{
		Cfg:         cfg,
		Clk:         clock.NewSim(FleetStart),
		Start:       FleetStart,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		profiles:    make(map[string]CompanyProfile),
		users:       make(map[string][]mail.Address),
		seededWL:    make(map[mail.Address][]mail.Address),
		seededBL:    make(map[mail.Address][]mail.Address),
		rejectedBy:  make(map[string]mail.Address),
		activity:    make(map[mail.Address]float64),
		greylists:   make(map[string]*greylist.Store),
		reputation:  make(map[string]*reputation.Store),
		truth:       make(map[string]Class),
		grayLog:     make(map[string]GrayEntry),
		classCounts: make(map[Class]int64),
	}
	f.Sched = clock.NewScheduler(f.Clk)
	f.DNS = dnssim.NewServer()
	f.Providers = rbl.StandardProviders(f.Clk)
	f.Traps = rbl.NewTrapRegistry(f.Providers...)
	f.Checker = rbl.NewChecker(f.Providers...)
	f.Digests = digest.NewBook()
	if cfg.FaultPlan != nil {
		f.Injector = faults.New(cfg.FaultPlan, cfg.Seed+77, f.Clk)
		f.DNS.SetInjector(f.Injector)
		for _, p := range f.Providers {
			p.SetInjector(f.Injector)
		}
	}
	netCfg := simnet.Config{Seed: cfg.Seed + 1, EmitDSNs: cfg.EmitDSNs}
	if f.Injector != nil {
		netCfg.Injector = f.Injector
	}
	f.Net = simnet.New(f.Clk, f.Sched, f.DNS, f.Providers, f.Traps, netCfg)

	// The resolver-cache path: every engine, probe filter, SPF checker
	// and the workload generator resolve through one TTL cache with
	// negative caching and single-flight collapse. Under a fault plan the
	// caches stay off — an injected fault must reach every consumer, and
	// the injector's per-decision RNG draws must keep their exact order.
	f.resolve = f.DNS
	if f.Injector == nil {
		f.DNSCache = dnscache.New(f.DNS, dnscache.Options{Clock: f.Clk, Gen: f.DNS.Gen})
		f.resolve = f.DNSCache
		// Explicit-invalidation mode: entries live until a fired barrier
		// invalidates exactly the IPs whose listing state changed (sweep
		// delists + flushed trap hits, see fireBarrier). Negative entries
		// for the never-listed majority therefore persist run-long.
		f.RBLCache = dnscache.NewRBLExplicit(f.filterProvider(), f.Clk)
		f.Net.SetResolvable(f.DNSCache.Resolvable)
	}

	f.buildWorld()
	f.buildCampaigns()
	f.buildCompanies()
	return f
}

// Salts for deriveSeed: each (seed, salt, ...) tuple yields an
// independent deterministic RNG stream.
const (
	saltLaneRNG int64 = iota + 1
	saltNetLane
	saltCampaignCovers
	saltCampaignTargets
	saltSurge
)

// deriveSeed hashes a base seed and salts into the seed of an
// independent RNG stream (splitmix64 finalizer). Lanes, the per-company
// network personas, and campaign memos each draw from streams derived
// from (seed, company) so their randomness is identical regardless of
// worker count or lane interleaving.
func deriveSeed(base int64, salts ...int64) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15
	for _, s := range salts {
		z += uint64(s) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z &^ (1 << 63))
}

// filterProvider returns the blocklist the engines' RBL filter consults
// (the study's product used SpamHaus).
func (f *Fleet) filterProvider() *rbl.Provider {
	for _, p := range f.Providers {
		if p.Name() == "spamhaus" {
			return p
		}
	}
	return f.Providers[0]
}

// assignScreen gives a remote server a blocklist subscription with
// probability ConsultRBLFraction, weighted toward the mainstream lists.
func (f *Fleet) assignScreen(rs *simnet.RemoteServer) {
	if f.rng.Float64() >= f.Cfg.ConsultRBLFraction {
		return
	}
	// Mainstream lists are consulted far more often than niche ones.
	weights := []int{3, 3, 6, 1, 1, 2, 4, 1} // parallel to StandardProviders order
	total := 0
	for _, w := range weights {
		total += w
	}
	u := f.rng.Intn(total)
	for i, w := range weights {
		if u < w {
			rs.Screen = f.Providers[i]
			return
		}
		u -= w
	}
}

func (f *Fleet) buildWorld() {
	cfg := f.Cfg

	// Partner domains with real human correspondents.
	for d := 0; d < cfg.LegitDomains; d++ {
		domain := fmt.Sprintf("partner%02d.example", d)
		ip := fmt.Sprintf("192.0.%d.%d", 2+d/200, 10+d%200)
		rs := simnet.NewRemoteServer(domain, ip)
		f.assignScreen(rs)
		for m := 0; m < cfg.LegitPerDomain; m++ {
			local := fmt.Sprintf("person%03d", m)
			rs.AddMailbox(local, simnet.PersonaLegit)
			f.legitPool = append(f.legitPool, mail.Address{Local: local, Domain: domain})
		}
		f.Net.AddRemote(rs)
		if f.rng.Float64() < cfg.LegitSPFRate {
			f.DNS.AddTXT(domain, fmt.Sprintf("v=spf1 ip4:%s -all", ip))
		}
	}

	// Bystander domains: innocent mailboxes (spoof victims), robots, and
	// scattered spamtraps.
	for d := 0; d < cfg.InnocentDomains; d++ {
		domain := fmt.Sprintf("bystander%02d.example", d)
		ip := fmt.Sprintf("203.0.%d.%d", 113+d/200, 10+d%200)
		rs := simnet.NewRemoteServer(domain, ip)
		f.assignScreen(rs)
		for m := 0; m < cfg.InnocentPerDomain; m++ {
			local := fmt.Sprintf("user%03d", m)
			rs.AddMailbox(local, simnet.PersonaInnocent)
			f.innocents = append(f.innocents, mail.Address{Local: local, Domain: domain})
		}
		for m := 0; m < cfg.RobotPerDomain; m++ {
			local := fmt.Sprintf("noreply%d", m)
			rs.AddMailbox(local, simnet.PersonaRobot)
			f.robots = append(f.robots, mail.Address{Local: local, Domain: domain})
		}
		f.Net.AddRemote(rs)
		if f.rng.Float64() < cfg.InnocentSPFRate {
			f.DNS.AddTXT(domain, fmt.Sprintf("v=spf1 ip4:%s -all", ip))
		}
	}

	// Spamtraps live on the bystander domains (they must look ordinary).
	for t := 0; t < cfg.TrapCount; t++ {
		domain := fmt.Sprintf("bystander%02d.example", t%cfg.InnocentDomains)
		addr := mail.Address{Local: fmt.Sprintf("trap%03d", t), Domain: domain}
		f.Traps.AddTrap(addr)
		f.trapAddrs = append(f.trapAddrs, addr)
	}

	// Domains whose mail servers never answer: challenges there expire.
	for d := 0; d < cfg.UnreachableDomains; d++ {
		domain := fmt.Sprintf("deadmx%02d.example", d)
		rs := simnet.NewRemoteServer(domain, fmt.Sprintf("198.18.0.%d", 10+d))
		rs.Unreachable = true
		f.Net.AddRemote(rs)
		f.unreachable = append(f.unreachable, domain)
	}

	// Spoofed domains with no DNS presence at all: mail claiming to come
	// from them is dropped at the MTA-IN ("unable to resolve").
	for d := 0; d < cfg.UnresolvableDomains; d++ {
		f.unresolvable = append(f.unresolvable, fmt.Sprintf("ghost%02d.invalid", d))
	}

	// A reachable foreign domain for relay probes against closed relays.
	f.foreignDomain = "elsewhere.example"
	rs := simnet.NewRemoteServer(f.foreignDomain, "198.51.100.200")
	rs.AddMailbox("info", simnet.PersonaRobot)
	f.Net.AddRemote(rs)

	// The botnet: spam-sending hosts with partial reverse DNS and
	// partial static blocklist coverage.
	spamhaus := f.filterProvider()
	for b := 0; b < cfg.BotnetSize; b++ {
		ip := fmt.Sprintf("100.%d.%d.%d", 64+b/65025, (b/255)%255, 1+b%255)
		bot := botIP{ip: ip}
		if f.rng.Float64() >= cfg.BotnetNoPTR {
			bot.hasPTR = true
			f.DNS.AddPTR(ip, fmt.Sprintf("dsl-%d.access.example", b))
			if f.rng.Float64() < cfg.BotnetListed {
				bot.listed = true
				spamhaus.AddStatic(ip)
			}
		}
		f.botnet = append(f.botnet, bot)
	}
}

func (f *Fleet) buildCampaigns() {
	cfg := f.Cfg
	// Newsletter/marketing campaigns: few similar senders on their own
	// domain, operator diligence spanning the paper's observed range.
	for k := 0; k < cfg.NewsletterCampaigns; k++ {
		domain := fmt.Sprintf("news%02d.example", k)
		ip := fmt.Sprintf("198.51.%d.%d", 100+k/200, 10+k%200)
		rs := simnet.NewRemoteServer(domain, ip)
		// Operator diligence skews low (most marketing programs ignore
		// challenges) with a tail reaching the paper's 97%-solved clusters.
		u := f.rng.Float64()
		diligence := 0.02 + 0.93*u*u*u
		c := &Campaign{
			ID:         k,
			Subject:    makeSubject(f.rng, fmt.Sprintf("newsletter%02d", k)),
			Newsletter: true,
			Diligence:  diligence,
			MsgSize:    9000 + f.rng.Intn(40000),
			StartDay:   0,
			EndDay:     1 << 30,
			Weight:     0.3 + f.rng.Float64(),
		}
		nSenders := 2 + f.rng.Intn(3)
		for s := 0; s < nSenders; s++ {
			local := fmt.Sprintf("dept-x.%c", 'p'+s)
			b := simnet.DefaultBehavior(simnet.PersonaNewsletter)
			b.VisitProb = min(1, diligence+0.05)
			b.SolveProbGivenVisit = diligence / b.VisitProb
			rs.AddMailboxBehavior(local, simnet.PersonaNewsletter, b)
			c.Senders = append(c.Senders, mail.Address{Local: local, Domain: domain})
		}
		f.Net.AddRemote(rs)
		f.DNS.AddTXT(domain, fmt.Sprintf("v=spf1 ip4:%s -all", ip))
		f.newsCamps = append(f.newsCamps, c)
	}

	// Botnet spam campaigns: a quarter run continuously (there is always
	// background spam), the rest are bursty windows. A minority use a
	// poisoned (trap-containing) harvested list; the first two poisoned
	// ones are continuous so every monitoring window observes the §5.1
	// blacklisting channel.
	for k := 0; k < cfg.SpamCampaigns; k++ {
		start := f.rng.Intn(160)
		end := start + 3 + f.rng.Intn(30)
		if k < cfg.SpamCampaigns/4 {
			start, end = 0, 1<<30 // background campaign
		}
		c := &Campaign{
			ID:        1000 + k,
			Subject:   makeSubject(f.rng, ""),
			VirusProb: cfg.SpamVirusProb,
			MsgSize:   3500 + f.rng.Intn(16000),
			StartDay:  start,
			EndDay:    end,
			Weight:    0.2 + f.rng.Float64()*1.8,
		}
		if k < 2 || f.rng.Float64() < 0.10 {
			c.TrapShare = 0.02 + f.rng.Float64()*0.03
		}
		poolSize := 10 + f.rng.Intn(16)
		for s := 0; s < poolSize; s++ {
			c.SpoofPool = append(c.SpoofPool, f.drawSpoof(c.TrapShare))
		}
		f.spamCamps = append(f.spamCamps, c)
	}
}

// drawSpoof draws one spoofed sender address: a trap with probability
// trapShare, otherwise per the configured spoof mix.
func (f *Fleet) drawSpoof(trapShare float64) mail.Address {
	if trapShare > 0 && f.rng.Float64() < trapShare {
		return f.trapAddrs[f.rng.Intn(len(f.trapAddrs))]
	}
	mix := f.Cfg.SpoofMix
	total := mix.NoUser + mix.Innocent + mix.Robot + mix.Unreachable
	u := f.rng.Float64() * total
	switch {
	case u < mix.NoUser:
		dom := f.innocents[f.rng.Intn(len(f.innocents))].Domain
		return mail.Address{Local: fmt.Sprintf("fake%d", f.rng.Intn(1000000)), Domain: dom}
	case u < mix.NoUser+mix.Innocent:
		return f.innocents[f.rng.Intn(len(f.innocents))]
	case u < mix.NoUser+mix.Innocent+mix.Robot:
		return f.robots[f.rng.Intn(len(f.robots))]
	default:
		dom := f.unreachable[f.rng.Intn(len(f.unreachable))]
		return mail.Address{Local: fmt.Sprintf("x%d", f.rng.Intn(100000)), Domain: dom}
	}
}

// companyLane is the per-company execution context: its own virtual
// clock, scheduler, RNG stream, message-ID source, sink buffers and
// ground-truth staging maps. A lane is advanced by exactly one worker
// per epoch, so everything here is single-threaded; lane-local state is
// merged into the shared maps behind f.mu only at epoch barriers.
type companyLane struct {
	idx     int // profile index: the stable salt for derived RNG streams
	comp    *simnet.Company
	profile CompanyProfile
	clk     *clock.Sim
	sched   *clock.Scheduler
	rng     *rand.Rand
	ids     *mail.IDSource

	// Sink buffer: maillog events are buffered per lane and flushed at
	// the epoch barrier in lane (company-name) order, so the stream the
	// measurement pipeline sees is worker-count-invariant.
	logBuf []maillog.Event

	// Ground-truth staging: written lock-free on the lane goroutine,
	// merged into Fleet.truth/grayLog/classCounts behind f.mu at each
	// epoch barrier (mergeLaneState). The injection hot path therefore
	// never touches the shared mutex.
	truth       map[string]Class
	grayLog     map[string]GrayEntry
	classCounts [ClassSpam + 1]int64

	// covering is the precomputed subset of spam campaigns whose
	// harvested lists include this company, in f.spamCamps order. It is
	// drawn from the same (seed, campaign, company) streams the lazy
	// memo used, so membership is identical — but the per-message pick
	// loop walks a lane-local slice instead of taking a per-campaign
	// mutex for every campaign.
	covering []*Campaign
	// targets memoises this company's harvested recipient list per
	// campaign ID. Deterministic per (seed, campaign, company), so each
	// lane computes its own copy without cross-lane sharing.
	targets map[int][]mail.Address

	active  []*Campaign // pickSpamCampaign scratch, reused per call
	names   interner    // hot-string interner ("mail.<domain>" …)
	scratch []byte      // byte scratch for name minting and intern probes

	// Overload admission (nil unless Config.Overload): the controller
	// runs on the lane clock and its events buffer into logBuf like the
	// engine's, so the shed stream is worker-count invariant.
	ctl *overload.Controller
	// surge is the lane's private service-latency injector (nil unless
	// Config.SurgePlan), seeded from (Seed, saltSurge, company).
	surge      *faults.Set
	surgeStats laneSurgeStats
}

func (f *Fleet) buildCompanies() {
	for i, p := range f.Cfg.Profiles {
		f.profiles[p.Name] = p
		challengeIP := fmt.Sprintf("198.51.100.%d", 1+i*2)
		mailIP := challengeIP
		if p.SplitMTAOut {
			mailIP = fmt.Sprintf("198.51.100.%d", 2+i*2)
		}

		// The lane: every time-dependent component below (breakers,
		// whitelist TTLs, greylist windows, reputation decay, the engine
		// itself) runs on the lane clock, which only this company's
		// worker advances. The shared f.Clk moves at epoch barriers.
		ln := &companyLane{
			idx:     i,
			profile: p,
			clk:     clock.NewSim(FleetStart),
			rng:     rand.New(rand.NewSource(deriveSeed(f.Cfg.Seed, saltLaneRNG, int64(i)))),
			ids:     mail.NewIDSource(p.Name),
			truth:   make(map[string]Class),
			grayLog: make(map[string]GrayEntry),
			targets: make(map[int][]mail.Address),
			names:   newInterner(),
		}
		ln.sched = clock.NewScheduler(ln.clk)

		av := filters.NewAntivirus()
		if f.Injector != nil {
			av.SetInjector(f.Injector)
		}
		// Every auxiliary filter runs behind a breaker + retrier with an
		// explicit degradation policy: the scan fails closed (unscanned
		// mail is held), the advisory lookups fail open (an outage must
		// not silently drop real mail). Without a fault plan the probes
		// never fail, so the hardened chain behaves identically.
		seed := f.Cfg.Seed + int64(i)*7919
		harden := func(pr filters.Prober, mode filters.DegradeMode, n int64) filters.Filter {
			return filters.Harden(pr, mode, filters.HardenOpts{
				Breaker: resilience.NewBreaker(p.Name+"/"+pr.Name(), resilience.DefaultBreakerConfig(), ln.clk),
				Seed:    seed + n,
			})
		}
		var rblBackend filters.RBLBackend = f.filterProvider()
		if f.RBLCache != nil {
			rblBackend = f.RBLCache
		}
		chainFilters := []filters.Filter{
			harden(av, filters.FailClosed, 1),
			harden(filters.NewReverseDNS(f.resolve), filters.FailOpen, 2),
			harden(filters.NewRBL(rblBackend), filters.FailOpen, 3),
		}
		if f.Cfg.UseSPFFilter {
			chainFilters = append(chainFilters, harden(filters.NewSPF(spf.New(f.resolve)), filters.FailOpen, 4))
		}
		var rep *reputation.Store
		if f.Cfg.UseReputation {
			repCfg := reputation.DefaultConfig()
			if f.Injector != nil {
				repCfg.Injector = f.Injector
			}
			rep = reputation.NewStore(repCfg, ln.clk)
			f.reputation[p.Name] = rep
			// The reputation check heads the chain so suspect senders are
			// dropped before any probe filter spends a lookup on them.
			chainFilters = append([]filters.Filter{
				harden(filters.NewReputation(rep), filters.FailOpen, 5),
			}, chainFilters...)
		}
		chain := filters.NewChain(chainFilters...)
		wl := whitelist.NewStore(ln.clk)
		relayDomains := []string(nil)
		if p.OpenRelay {
			relayDomains = []string{"relay-" + p.Domain}
		}
		eng := core.New(core.Config{
			Name:                 p.Name,
			Domains:              []string{p.Domain},
			OpenRelay:            p.OpenRelay,
			RelayDomains:         relayDomains,
			QuarantineTTL:        30 * day,
			ChallengeFrom:        mail.Address{Local: "challenge", Domain: p.Domain},
			ChallengeBaseURL:     "http://cr." + p.Domain,
			ChallengeSize:        1800,
			Seed:                 f.Cfg.Seed + int64(i)*7919,
			MaxChallengesPerHour: f.Cfg.ChallengeCapPerHour,
		}, ln.clk, f.resolve, chain, wl, nil)
		if rep != nil {
			eng.SetReputation(rep)
		}
		if f.Cfg.LogSink != nil {
			// Buffer events on the lane; the barrier flushes them to the
			// user's sink in canonical order (see Fleet.flushSinks).
			eng.SetEventSink(func(ev maillog.Event) {
				ln.logBuf = append(ln.logBuf, ev)
			})
		}
		if f.Cfg.UseGreylisting {
			f.greylists[p.Name] = greylist.New(greylist.DefaultConfig(), ln.clk)
		}
		if f.Cfg.Overload != nil {
			oc := *f.Cfg.Overload
			oc.Name = p.Name
			oc.Clock = ln.clk
			oc.EventSink = func(ev maillog.Event) {
				ln.logBuf = append(ln.logBuf, ev)
			}
			ln.ctl = overload.New(oc)
			// Under queue pressure the engine sheds its probe-filter
			// work (fail-open degradation) before admissions themselves
			// start tempfailing mail.
			eng.SetPressure(ln.ctl.Pressured)
		}
		if f.Cfg.SurgePlan != nil {
			ln.surge = faults.New(f.Cfg.SurgePlan,
				deriveSeed(f.Cfg.Seed, saltSurge, int64(i)), ln.clk)
		}
		f.DNS.RegisterMailDomain(p.Domain, challengeIP)

		// Protected accounts plus their seeded white/blacklists.
		users := make([]mail.Address, p.Users)
		for u := range users {
			addr := mail.Address{Local: fmt.Sprintf("user%04d", u), Domain: p.Domain}
			users[u] = addr
			eng.AddUser(addr)
			// Outbound activity is heavily skewed across users (most
			// people send little mail; a few send a lot), which is what
			// produces the paper's Figure 9 churn distribution: a
			// dominant low-churn mode with a long tail.
			au := f.rng.Float64()
			f.activity[addr.Canonical()] = au * au * 3
			nSeed := f.Cfg.Profiles[i].SeedWhitelist
			seeds := make([]mail.Address, 0, nSeed)
			for s := 0; s < nSeed; s++ {
				contact := f.legitPool[f.rng.Intn(len(f.legitPool))]
				if wl.AddWhite(addr, contact, whitelist.SourceSeed) {
					seeds = append(seeds, contact)
				}
			}
			f.seededWL[addr.Canonical()] = seeds
			bl := make([]mail.Address, 0, 2)
			for s := 0; s < 2; s++ {
				bad := f.innocents[f.rng.Intn(len(f.innocents))]
				if wl.AddBlack(addr, bad) {
					bl = append(bl, bad)
				}
			}
			f.seededBL[addr.Canonical()] = bl
		}
		f.users[p.Name] = users

		// One administratively rejected sender per company.
		banned := mail.Address{Local: "banned-" + p.Name, Domain: f.innocents[0].Domain}
		eng.RejectSender(banned)
		f.rejectedBy[p.Name] = banned

		comp := &simnet.Company{
			Name:        p.Name,
			Engine:      eng,
			ChallengeIP: challengeIP,
			MailIP:      mailIP,
		}
		ln.comp = comp
		f.Net.AttachCompanyLane(comp, ln.clk, ln.sched,
			deriveSeed(f.Cfg.Seed, saltNetLane, int64(i)))
		f.Companies = append(f.Companies, comp)
		f.lanes = append(f.lanes, ln)
	}

	// Canonical lane order: company name. Barrier-side iteration (sink
	// flushing) follows this order so outputs are worker-count-invariant
	// whatever order the profiles came in.
	sort.Slice(f.lanes, func(i, j int) bool {
		return f.lanes[i].comp.Name < f.lanes[j].comp.Name
	})

	// Precompute each lane's covering-campaign list. Coverage is random
	// per (campaign, company) with probability 0.3, drawn from a stream
	// derived from (seed, campaign, company) — the §5.1 decorrelation of
	// blacklisting risk from company size. Computing it eagerly here
	// (48 campaigns × lanes is trivial) removes a per-campaign mutex
	// acquisition from every generated spam message.
	for _, ln := range f.lanes {
		for _, c := range f.spamCamps {
			rng := rand.New(rand.NewSource(deriveSeed(f.Cfg.Seed, saltCampaignCovers, int64(c.ID), int64(ln.idx))))
			if rng.Float64() < 0.3 {
				ln.covering = append(ln.covering, c)
			}
		}
	}

	// The outbound-IP set the §5.1 checker polls: companies are fixed
	// after build, so compute it once here instead of every simulated
	// day (invalidate by clearing f.outIPs if companies ever change).
	f.outIPs = nil
	f.outIPs = f.allOutIPs()
}

// Day returns the current simulation day index (0-based).
func (f *Fleet) Day() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.day
}

// Truth returns the ground-truth class of a generated message.
func (f *Fleet) Truth(msgID string) (Class, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	c, ok := f.truth[msgID]
	return c, ok
}

// ClassCounts returns how many messages of each class were generated.
func (f *Fleet) ClassCounts() map[Class]int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[Class]int64, len(f.classCounts))
	for k, v := range f.classCounts {
		out[k] = v
	}
	return out
}

// GrayLog returns the per-message context captured for messages that
// entered the gray spool, keyed by message ID.
func (f *Fleet) GrayLog() map[string]GrayEntry {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]GrayEntry, len(f.grayLog))
	for k, v := range f.grayLog {
		out[k] = v
	}
	return out
}

// Users returns the protected accounts of a company.
func (f *Fleet) Users(company string) []mail.Address { return f.users[company] }

// Profile returns a company's profile.
func (f *Fleet) Profile(company string) CompanyProfile { return f.profiles[company] }

// SpamCampaigns returns the botnet campaign list.
func (f *Fleet) SpamCampaigns() []*Campaign { return f.spamCamps }

// NewsletterCampaigns returns the newsletter campaign list.
func (f *Fleet) NewsletterCampaigns() []*Campaign { return f.newsCamps }

// LegitPool returns the population of real correspondent addresses.
func (f *Fleet) LegitPool() []mail.Address { return f.legitPool }

// Greylist returns a company's greylist store (nil unless
// UseGreylisting).
func (f *Fleet) Greylist(company string) *greylist.Store { return f.greylists[company] }

// Reputation returns a company's sender-reputation store (nil unless
// UseReputation).
func (f *Fleet) Reputation(company string) *reputation.Store { return f.reputation[company] }
