package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/bodystore"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/faults/seam"
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
	// Workers is the number of goroutines Run advances lanes on (and
	// NewFleet builds the companies on): companies advance in
	// parallel, claiming lanes off one shared counter and rendezvousing
	// at hourly epoch edges where cross-lane barriers fire only for
	// epochs with staged effects (see ledger.go). 0 means GOMAXPROCS;
	// 1 runs the same epoch loop serially. Results are identical for
	// every value — each company owns its clock, scheduler, RNG streams
	// and fault injector, and cross-company effects apply only at
	// barriers in company-name order.
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
	// layer on every lane: each company gets its own injector, seeded
	// from (Seed, company) and timed by the lane clock, which its
	// resolver, blocklist and scanner seams, its reputation store, its
	// DSN generation and its admission service latency (the "surge"
	// target) all consult. A run under faults is exactly reproducible
	// for any worker count, and a rule's hour window is read in the
	// lane's own time.
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

// Fleet is the fully-assembled world: simulated clock, DNS, blocklists,
// remote servers, companies, campaigns and the day-loop driver.
type Fleet struct {
	Cfg Config
	// Clk is the shared clock the blocklist providers run on. It moves
	// only at fired barriers (ledger.go); each lane runs on its own.
	Clk       *clock.Sim
	DNS       *dnssim.Server
	Providers []*rbl.Provider
	Traps     *rbl.TrapRegistry
	Net       *simnet.Network
	Checker   *rbl.Checker
	Companies []*simnet.Company
	Start     time.Time

	lanes  []*companyLane // company-name-sorted execution lanes
	outIPs []string       // cached allOutIPs result

	rng *rand.Rand

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

	// day is the current day index. Run writes it between days, with
	// every lane parked; per-message measurement state lives on the
	// lanes.
	day int

	// ledger is the sparse-barrier bookkeeping (ledger.go): epoch,
	// fired/skipped-barrier and trap-hit counters.
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
		Cfg:   cfg,
		Clk:   clock.NewSim(FleetStart),
		Start: FleetStart,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	f.DNS = dnssim.NewServer()
	f.Providers = rbl.StandardProviders(f.Clk)
	f.Traps = rbl.NewTrapRegistry(f.Providers...)
	f.Checker = rbl.NewChecker(f.Providers...)
	f.Net = simnet.New(f.DNS, f.Traps, simnet.Config{EmitDSNs: cfg.EmitDSNs})

	f.buildWorld()
	f.buildCampaigns()
	f.buildCompanies()
	// Lanes read the zone, the remote servers' mailboxes and the trap
	// set without a lock from here on; a mutation would panic
	// (TestFleetZoneStaticDuringRun pins that none happens).
	f.DNS.Freeze()
	f.Net.Freeze()
	return f
}

// spamCampaignBase is the ID of the first spam campaign; spam campaign
// k has ID spamCampaignBase+k, above every newsletter's ID.
const spamCampaignBase = 1000

// Salts for deriveSeed: each (seed, salt, ...) tuple yields an
// independent deterministic RNG stream.
const (
	saltLaneRNG int64 = iota + 1
	saltNetLane
	saltCampaignCovers
	saltCampaignTargets
	saltFaults
)

// deriveSeed hashes a base seed and salts into the seed of an
// independent RNG stream (splitmix64 finalizer). Lanes, the per-company
// network personas, fault injectors and campaign memos each draw from
// streams derived from (seed, company) so their randomness is identical
// regardless of worker count or lane interleaving.
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
			ID:        spamCampaignBase + k,
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
// clock, scheduler, RNG stream, message-ID source, fault injector and
// the resolver behind it, users and their per-user state, sink buffers
// and the ground truth of the messages it generated. A lane is advanced by exactly one worker per epoch, so
// everything here is single-threaded; the Fleet's accessors read it
// between Run calls.
type companyLane struct {
	idx     int // profile index: the stable salt for derived RNG streams
	comp    *simnet.Company
	profile CompanyProfile
	clk     *clock.Sim
	sched   *clock.Scheduler
	rng     *rand.Rand
	ids     *mail.IDSource
	// faults is the lane's injector (nil without Config.FaultPlan),
	// seeded from (Seed, saltFaults, company) and timed by clk; resolve
	// is the zone behind its "dns" seam, which the engine, its probe
	// filters and simnet's delivery probe for this company share.
	faults  *faults.Set
	resolve dnssim.Resolver

	// users are the company's protected accounts. The per-user slices
	// beside them are indexed by a user's position in users: the seeded
	// contacts the whitelist took (legitPool indices), the blacklisted
	// senders it took (innocents indices) and the outbound-activity
	// multiplier. digests holds one digest size per user per simulated
	// day, day-major (day d, user u at d*len(users)+u).
	users    []mail.Address
	seededWL [][]int32
	seededBL [][]int32
	activity []float64
	digests  []int32
	banned   mail.Address      // the company's administratively rejected sender
	gl       *greylist.Store   // nil unless Config.UseGreylisting
	rep      *reputation.Store // nil unless Config.UseReputation

	// free recycles the generated messages nothing retains any more.
	free msgFree

	// Sink buffer: maillog events are buffered per lane and flushed at
	// the epoch barrier in lane (company-name) order, so the stream the
	// measurement pipeline sees is worker-count-invariant.
	logBuf []maillog.Event
	// delayed folds the engine's inbox deliveries as they happen.
	delayed DelayedDeliveries

	// Ground truth, one byte per generated message: truth[n-1] is the
	// class of the message ids minted as sequence number n (ids mints
	// nothing else).
	truth []Class

	// covering is the precomputed subset of spam campaigns whose
	// harvested lists include this company, in f.spamCamps order. It is
	// drawn from the same (seed, campaign, company) streams the lazy
	// memo used, so membership is identical — but the per-message pick
	// loop walks a lane-local slice instead of taking a per-campaign
	// mutex for every campaign.
	covering []*Campaign
	// targets memoises this company's harvested recipient list per spam
	// campaign, indexed by the campaign's position in f.spamCamps (its ID
	// minus spamCampaignBase). Deterministic per (seed, campaign,
	// company), so each lane computes its own copy without cross-lane
	// sharing. targetRNG is re-seeded for each campaign's stream, so
	// every memo (and, in buildCompany, every covering draw) uses one
	// source instead of allocating its own.
	targets   [][]mail.Address
	targetRNG *rand.Rand

	// active and activeWeight are the covering campaigns active on day
	// activeDay and their summed weight, rebuilt by pickSpamCampaign
	// when the day changes (-1 before the first pick).
	active       []*Campaign
	activeWeight float64
	activeDay    int

	names   interner // hot-string interner ("mail.<domain>" …)
	scratch []byte   // byte scratch for name minting and intern probes

	// Overload admission (nil unless Config.Overload): the controller
	// runs on the lane clock and its events buffer into logBuf like the
	// engine's, so the shed stream is worker-count invariant.
	ctl        *overload.Controller
	surgeStats laneSurgeStats
}

// companyDraws holds the values one company's build takes from the
// shared f.rng, per user, in the order a serial build draws them.
type companyDraws struct {
	activity []float64 // outbound-activity multiplier
	white    []int32   // SeedWhitelist legitPool indices per user, flat
	black    []int32   // two innocents indices per user, flat
}

// builtCompany is a company as a build worker leaves it: its draws and
// its lane, with the lane's engine, stores and per-user state.
type builtCompany struct {
	companyDraws
	ln *companyLane
}

// buildCompanies builds one lane per profile in three passes, so the
// costly middle one runs on the lane workers and the result does not
// depend on how many there are:
//
//  1. serially, in profile order, draw every f.rng value the companies
//     consume (drawCompany);
//  2. on f.workers goroutines claiming companies off one counter, the
//     largest first, build each company's lane, engine, stores,
//     whitelist seeding and covering list (buildCompany), touching no
//     shared state;
//  3. serially, in profile order, record the companies in the DNS zone,
//     the network and the fleet (publishCompany).
func (f *Fleet) buildCompanies() {
	profiles := f.Cfg.Profiles
	built := make([]builtCompany, len(profiles))
	for i, p := range profiles {
		built[i].companyDraws = f.drawCompany(p)
	}

	// Whitelist and blacklist seeding dominates a company's build, so
	// the companies with the most list entries are claimed first and
	// the last claims are short.
	order := make([]int, len(profiles))
	for i := range order {
		order[i] = i
	}
	entries := func(i int) int { return profiles[i].Users * (profiles[i].SeedWhitelist + 2) }
	slices.SortStableFunc(order, func(a, b int) int { return entries(b) - entries(a) })
	runClaimed(len(order), f.workers(len(order)), func(k int) {
		f.buildCompany(order[k], &built[order[k]])
	})

	for i := range built {
		f.publishCompany(&built[i])
	}

	// Canonical lane order: company name. Barrier-side iteration (sink
	// flushing) follows this order so outputs are worker-count-invariant
	// whatever order the profiles came in.
	sort.Slice(f.lanes, func(i, j int) bool {
		return f.lanes[i].comp.Name < f.lanes[j].comp.Name
	})

	// The outbound-IP set the §5.1 checker polls: companies are fixed
	// after build, so compute it once here instead of every simulated
	// day (invalidate by clearing f.outIPs if companies ever change).
	f.outIPs = nil
	f.outIPs = f.allOutIPs()
}

// drawCompany draws, from f.rng, the per-user values of profile p's
// build: each user's outbound activity, then their whitelist seeds, then
// their two blacklisted senders.
func (f *Fleet) drawCompany(p CompanyProfile) companyDraws {
	d := companyDraws{
		activity: make([]float64, p.Users),
		white:    make([]int32, 0, p.Users*p.SeedWhitelist),
		black:    make([]int32, 0, p.Users*2),
	}
	for u := range d.activity {
		// Outbound activity is heavily skewed across users (most people
		// send little mail; a few send a lot), which is what produces
		// the paper's Figure 9 churn distribution: a dominant low-churn
		// mode with a long tail.
		au := f.rng.Float64()
		d.activity[u] = au * au * 3
		for s := 0; s < p.SeedWhitelist; s++ {
			d.white = append(d.white, int32(f.rng.Intn(len(f.legitPool))))
		}
		for s := 0; s < 2; s++ {
			d.black = append(d.black, int32(f.rng.Intn(len(f.innocents))))
		}
	}
	return d
}

// buildCompany builds company i from b's draws into b. It runs on a
// build worker, beside other companies' builds: it reads only state
// fixed before buildCompanies and writes only b.
func (f *Fleet) buildCompany(i int, b *builtCompany) {
	p := f.Cfg.Profiles[i]
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
		idx:       i,
		profile:   p,
		clk:       clock.NewSim(FleetStart),
		rng:       rand.New(rand.NewSource(deriveSeed(f.Cfg.Seed, saltLaneRNG, int64(i)))),
		ids:       mail.NewIDSource(p.Name),
		targets:   make([][]mail.Address, len(f.spamCamps)),
		names:     newInterner(),
		targetRNG: rand.New(rand.NewSource(0)),
		activeDay: -1,
	}
	ln.sched = clock.NewScheduler(ln.clk)
	b.ln = ln

	// The engine, its probe filters and its SPF checker read the frozen
	// zone and the filter blocklist directly, behind the lane's fault
	// seams (which return their input without a fault plan). No cache
	// sits in front: the zone is frozen once built, and the blocklist
	// changes only at fired barriers while every lane is parked.
	if f.Cfg.FaultPlan != nil {
		ln.faults = faults.New(f.Cfg.FaultPlan, deriveSeed(f.Cfg.Seed, saltFaults, int64(i)), ln.clk)
	}
	ln.resolve = seam.Resolver(f.DNS, ln.faults)
	av := seam.Antivirus(filters.NewAntivirus(), ln.faults)
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
	chainFilters := []filters.Filter{
		harden(av, filters.FailClosed, 1),
		harden(filters.NewReverseDNS(ln.resolve), filters.FailOpen, 2),
		harden(filters.NewRBL(seam.RBL(f.filterProvider(), ln.faults)), filters.FailOpen, 3),
	}
	if f.Cfg.UseSPFFilter {
		chainFilters = append(chainFilters, harden(filters.NewSPF(spf.New(ln.resolve)), filters.FailOpen, 4))
	}
	if f.Cfg.UseReputation {
		repCfg := reputation.DefaultConfig()
		if ln.faults != nil {
			repCfg.Injector = ln.faults
		}
		ln.rep = reputation.NewStore(repCfg, ln.clk)
		// The reputation check heads the chain so suspect senders are
		// dropped before any probe filter spends a lookup on them.
		chainFilters = append([]filters.Filter{
			harden(filters.NewReputation(ln.rep), filters.FailOpen, 5),
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
		Bodies:               keepBodies{},
	}, ln.clk, ln.resolve, chain, wl, nil)
	if ln.rep != nil {
		eng.SetReputation(ln.rep)
	}
	if f.Cfg.LogSink != nil {
		// Buffer events on the lane; the barrier flushes them to the
		// user's sink in canonical order (see Fleet.flushSinks).
		eng.SetEventSink(func(ev maillog.Event) {
			ln.logBuf = append(ln.logBuf, ev)
		})
	}
	eng.SetInboxSink(ln.delayed.add)
	if f.Cfg.UseGreylisting {
		ln.gl = greylist.New(greylist.DefaultConfig(), ln.clk)
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

	// Protected accounts plus their seeded white/blacklists.
	nSeed := p.SeedWhitelist
	ln.users = make([]mail.Address, p.Users)
	ln.seededWL = make([][]int32, p.Users)
	ln.seededBL = make([][]int32, p.Users)
	ln.activity = b.activity
	for u := range ln.users {
		addr := mail.Address{Local: fmt.Sprintf("user%04d", u), Domain: p.Domain}
		ln.users[u] = addr
		eng.AddUser(addr)
		wl.Reserve(addr, nSeed, 2)
		seeds := make([]int32, 0, nSeed)
		for _, k := range b.white[u*nSeed : (u+1)*nSeed] {
			if wl.AddWhite(addr, f.legitPool[k], whitelist.SourceSeed) {
				seeds = append(seeds, k)
			}
		}
		ln.seededWL[u] = seeds
		bl := make([]int32, 0, 2)
		for _, k := range b.black[u*2 : (u+1)*2] {
			if wl.AddBlack(addr, f.innocents[k]) {
				bl = append(bl, k)
			}
		}
		ln.seededBL[u] = bl
	}

	// One administratively rejected sender per company.
	ln.banned = mail.Address{Local: "banned-" + p.Name, Domain: f.innocents[0].Domain}
	eng.RejectSender(ln.banned)

	ln.comp = &simnet.Company{
		Name:        p.Name,
		Engine:      eng,
		ChallengeIP: challengeIP,
		MailIP:      mailIP,
	}

	// The spam campaigns whose harvested lists include this company.
	// Coverage is random per (campaign, company) with probability 0.3,
	// drawn from a stream derived from (seed, campaign, company) — the
	// §5.1 decorrelation of blacklisting risk from company size.
	// Computing it here removes a per-campaign mutex acquisition from
	// every generated spam message. The lane's targetRNG, re-seeded per
	// pair, yields exactly each pair's fresh stream (laneTargets
	// re-seeds it again before every use).
	for _, c := range f.spamCamps {
		ln.targetRNG.Seed(deriveSeed(f.Cfg.Seed, saltCampaignCovers, int64(c.ID), int64(i)))
		if ln.targetRNG.Float64() < 0.3 {
			ln.covering = append(ln.covering, c)
		}
	}
}

// publishCompany records a built company: its domain in the DNS zone,
// its lane on the network and in the fleet. buildCompanies calls it in
// profile order.
func (f *Fleet) publishCompany(b *builtCompany) {
	ln := b.ln
	f.DNS.RegisterMailDomain(ln.profile.Domain, ln.comp.ChallengeIP)
	f.Net.AttachCompanyLane(ln.comp, ln.clk, ln.sched,
		deriveSeed(f.Cfg.Seed, saltNetLane, int64(ln.idx)), ln.resolve, ln.faults)
	f.Companies = append(f.Companies, ln.comp)
	f.lanes = append(f.lanes, ln)
}

// lane returns the lane of the named company, or nil.
func (f *Fleet) lane(company string) *companyLane {
	i, found := slices.BinarySearchFunc(f.lanes, company, func(ln *companyLane, name string) int {
		return strings.Compare(ln.comp.Name, name)
	})
	if !found {
		return nil
	}
	return f.lanes[i]
}

// laneOf returns the lane that minted msgID and the ID's sequence
// number, or nil for an ID no lane minted (DSNs, other prefixes).
func (f *Fleet) laneOf(msgID string) (*companyLane, uint64) {
	prefix, seq, ok := mail.ParseID(msgID)
	if !ok {
		return nil, 0
	}
	ln := f.lane(prefix)
	if ln == nil {
		return nil, 0
	}
	return ln, seq
}

// truthOf returns the class of the lane's message with sequence number
// seq, if that message could reach the gray spool.
func (ln *companyLane) truthOf(seq uint64) (Class, bool) {
	if seq == 0 || seq > uint64(len(ln.truth)) {
		return 0, false
	}
	c := ln.truth[seq-1]
	if !c.graySpool() {
		return 0, false
	}
	return c, true
}

// Truth returns the ground-truth class of a generated message that could
// reach the gray spool; any other ID reports false. Call it between Run
// calls.
func (f *Fleet) Truth(msgID string) (Class, bool) {
	ln, seq := f.laneOf(msgID)
	if ln == nil {
		return 0, false
	}
	return ln.truthOf(seq)
}

// keepBodies is the lanes' core.Bodies. A generated body is a constant,
// a slice of one, or built once for its message, and never changes, so
// the engine keeps the message's own string instead of a copy.
type keepBodies struct{}

func (keepBodies) Put(body string) (bodystore.Ref, string) { return bodystore.Ref{}, body }
func (keepBodies) Free(bodystore.Ref)                      {}

// DelayedDeliveries holds the inbox deliveries that waited in
// quarantine (Figure 7, §6): one delay per delivery via a solved
// challenge or a digest pick, plus the message ID of each challenge
// delivery. Whitelist deliveries are instant and only counted, in the
// engines' Delivered metrics.
type DelayedDeliveries struct {
	Challenge    []time.Duration
	ChallengeIDs []string // parallel to Challenge
	Digest       []time.Duration
}

// add is a lane engine's inbox sink.
func (d *DelayedDeliveries) add(del core.Delivery, _ *mail.Message) {
	switch del.Via {
	case core.ViaChallenge:
		d.Challenge = append(d.Challenge, del.Delay())
		d.ChallengeIDs = append(d.ChallengeIDs, del.MsgID)
	case core.ViaDigest:
		d.Digest = append(d.Digest, del.Delay())
	}
}

// Delayed returns every lane's delayed deliveries, merged in lane order
// into fresh slices. Call it between Run calls.
func (f *Fleet) Delayed() DelayedDeliveries {
	var out DelayedDeliveries
	for _, ln := range f.lanes {
		out.Challenge = append(out.Challenge, ln.delayed.Challenge...)
		out.ChallengeIDs = append(out.ChallengeIDs, ln.delayed.ChallengeIDs...)
		out.Digest = append(out.Digest, ln.delayed.Digest...)
	}
	return out
}

// FaultCounts returns how often each "target/kind" fault fired, summed
// over the lanes' injectors (empty without Config.FaultPlan). Call it
// between Run calls.
func (f *Fleet) FaultCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, ln := range f.lanes {
		if ln.faults == nil {
			continue
		}
		for k, n := range ln.faults.Counts() {
			out[k] += n
		}
	}
	return out
}

// Users returns the protected accounts of a company.
func (f *Fleet) Users(company string) []mail.Address {
	if ln := f.lane(company); ln != nil {
		return ln.users
	}
	return nil
}

// DigestSeries returns, for each of company's users in Users order, the
// size of their daily digest on every simulated day so far. Empty
// digests are recorded too: a zero on the Figure 10 time series is
// data, not absence of data. Call it between Run calls.
func (f *Fleet) DigestSeries(company string) [][]int {
	ln := f.lane(company)
	if ln == nil {
		return nil
	}
	n := len(ln.users)
	out := make([][]int, n)
	if n == 0 {
		return out
	}
	days := len(ln.digests) / n
	for u := range out {
		s := make([]int, days)
		for d := range s {
			s[d] = int(ln.digests[d*n+u])
		}
		out[u] = s
	}
	return out
}

// Profile returns a company's profile.
func (f *Fleet) Profile(company string) CompanyProfile {
	if ln := f.lane(company); ln != nil {
		return ln.profile
	}
	return CompanyProfile{}
}

// SpamCampaigns returns the botnet campaign list.
func (f *Fleet) SpamCampaigns() []*Campaign { return f.spamCamps }

// NewsletterCampaigns returns the newsletter campaign list.
func (f *Fleet) NewsletterCampaigns() []*Campaign { return f.newsCamps }

// Reputation returns a company's sender-reputation store (nil unless
// UseReputation).
func (f *Fleet) Reputation(company string) *reputation.Store {
	if ln := f.lane(company); ln != nil {
		return ln.rep
	}
	return nil
}
