package workload

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/filters"
	"repro/internal/greylist"
	"repro/internal/mail"
	"repro/internal/simnet"
)

// Run advances the simulation by the given number of days, generating
// each company's daily traffic, running the challenge/solve machinery in
// virtual time, and performing the daily chores (digest generation and
// weeding, outbound user mail, quarantine expiry) plus the 4-hourly
// §5.1 blacklist poll.
//
// Companies execute on independent lanes advanced in one-hour epochs by
// Config.Workers goroutines (advanceLanes). Cross-lane synchronization
// is *sparse*: at each epoch rendezvous the effect ledger (ledger.go)
// decides whether any cross-company effect was staged — trap hits, a
// due checker poll, a pending shared-scheduler event — and only then
// does the barrier fire;
// idle epochs are skipped with a watermark advance and the shared clock
// stays frozen. The last epoch of every day always fires, so public
// accessors are consistent whenever Run returns. All effects apply in
// company-name order at deterministic virtual times, so the results are
// bit-for-bit identical for any worker count.
func (f *Fleet) Run(days int) {
	if days <= 0 {
		return
	}
	workers := f.workers()
	for d := 0; d < days; d++ {
		dayStart := f.scheduleDay()
		for h := 1; h <= 24; h++ {
			epochEnd := dayStart.Add(time.Duration(h) * time.Hour)
			f.advanceLanes(epochEnd, workers)
			f.ledger.epochs.Add(1)
			// The day's final epoch always fires: it bounds sink-buffer
			// growth and leaves the shared clock, merged state and day
			// counter consistent for between-Run readers.
			if h == 24 || f.barrierDue(epochEnd) {
				f.fireBarrier(epochEnd)
			} else {
				f.ledger.skipped.Add(1)
			}
		}
		f.mu.Lock()
		f.day++
		f.mu.Unlock()
	}
}

// advanceLanes runs every lane to end and returns once all are parked
// there (the epoch rendezvous). The caller and workers-1 goroutines
// claim lane indices off one shared counter until none is left, so a
// lane stuck in a campaign burst holds up only the worker running it;
// workers == 1 starts no goroutine and runs the same loop alone. Lanes
// are independent within an epoch (shared state is frozen between
// fired barriers and cross-lane effects are staged, see ledger.go), so
// which worker runs a lane cannot change any result.
func (f *Fleet) advanceLanes(end time.Time, workers int) {
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(f.lanes)); i = next.Add(1) - 1 {
			f.lanes[i].sched.RunUntil(end)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// workers resolves the effective number of lane workers.
func (f *Fleet) workers() int {
	w := f.Cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// A fault plan shares one seeded injector RNG across every consumer;
	// parallel lanes would make its draw order depend on goroutine
	// scheduling, so chaos runs stay serial to remain reproducible.
	if f.Injector != nil {
		w = 1
	}
	return max(1, min(w, len(f.lanes)))
}

// scheduleDay queues the current day's traffic on every lane and
// returns the day's start time. It runs between epochs, with every lane
// parked at the previous day's final (always-fired) barrier.
func (f *Fleet) scheduleDay() time.Time {
	f.mu.Lock()
	dayIdx := f.day
	f.mu.Unlock()
	dayStart := f.Start.Add(time.Duration(dayIdx) * day)

	// Schedule each company's hourly traffic batches and end-of-day
	// chores on its own lane.
	for _, ln := range f.lanes {
		ln := ln
		volume := int(float64(ln.profile.DailyVolume) * f.Cfg.ScaleVolume)
		for h := 0; h < 24; h++ {
			n := volume / 24
			if h < volume%24 {
				n++
			}
			// Surge bursts top the hour up with extra botnet spam so total
			// volume hits roughly Intensity× baseline (max(n,1) keeps a
			// burst visible even at tiny scaled volumes).
			extra := f.burstExtra(dayIdx, h, max(n, 1))
			if n == 0 && extra == 0 {
				continue
			}
			count, boost := n, extra
			ln.sched.At(dayStart.Add(time.Duration(h)*time.Hour), func() {
				// The burst spam floods first: ham arriving behind it
				// inside the window sees a saturated queue, which is
				// exactly the shed-then-retry path the surge experiment
				// must exercise.
				for i := 0; i < boost; i++ {
					f.injectClass(ln, ClassSpam)
				}
				for i := 0; i < count; i++ {
					f.injectOne(ln)
				}
			})
		}
		ln.sched.At(dayStart.Add(23*time.Hour+50*time.Minute), func() {
			f.dailyChores(ln, dayIdx)
		})
	}
	return dayStart
}

// mergeLaneState folds every lane's staged ground-truth writes (truth
// labels, gray-spool context, class counts) into the shared maps under
// one f.mu acquisition per barrier. During the epoch the lanes write
// these lock-free into lane-local staging, so the per-message hot path
// never contends on f.mu; readers of the public accessors see state
// complete up to the last barrier.
func (f *Fleet) mergeLaneState() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ln := range f.lanes {
		for id, c := range ln.truth {
			f.truth[id] = c
		}
		clear(ln.truth)
		for id, g := range ln.grayLog {
			f.grayLog[id] = g
		}
		clear(ln.grayLog)
		for cl, n := range ln.classCounts {
			if n != 0 {
				f.classCounts[Class(cl)] += n
				ln.classCounts[cl] = 0
			}
		}
	}
}

// laneTruth looks up a message's ground-truth class: the lane's staging
// map first (entries from the current epoch, lock-free), then the shared
// merged map.
func (f *Fleet) laneTruth(ln *companyLane, id string) (Class, bool) {
	if c, ok := ln.truth[id]; ok {
		return c, true
	}
	f.mu.RLock()
	c, ok := f.truth[id]
	f.mu.RUnlock()
	return c, ok
}

// flushSinks drains every lane's buffered maillog events to the
// configured sink, in canonical lane order.
func (f *Fleet) flushSinks() {
	for _, ln := range f.lanes {
		if f.Cfg.LogSink != nil {
			for _, ev := range ln.logBuf {
				f.Cfg.LogSink(ev)
			}
		}
		ln.logBuf = ln.logBuf[:0]
	}
}

// allOutIPs lists every company's outbound IPs (challenge + user mail).
// The set is fixed after buildCompanies, which caches it in f.outIPs;
// anything that adds or removes a company must clear that field.
func (f *Fleet) allOutIPs() []string {
	if f.outIPs != nil {
		return f.outIPs
	}
	var ips []string
	seen := make(map[string]bool)
	for _, c := range f.Companies {
		for _, ip := range []string{c.ChallengeIP, c.MailIP} {
			if !seen[ip] {
				seen[ip] = true
				ips = append(ips, ip)
			}
		}
	}
	f.outIPs = ips
	return ips
}

// msgPool recycles mail.Message structs on the injection hot path. Only
// messages nothing retains are returned to it (MTA rejections, abandoned
// greylist retries — the large majority of generated traffic); accepted
// messages may live on in an engine's quarantine. Pooled messages are
// zeroed before reuse, so recycling cannot leak state between messages
// or perturb simulation outcomes.
var msgPool = sync.Pool{New: func() any { return new(mail.Message) }}

func getMsg() *mail.Message  { return msgPool.Get().(*mail.Message) }
func putMsg(m *mail.Message) { *m = mail.Message{}; msgPool.Put(m) }

// bodyFiller backs generated message bodies: slicing a shared string
// costs nothing per message, where strings.Repeat used to allocate.
var bodyFiller = strings.Repeat("x", 256)

// drawClass samples a traffic class from the company's mix.
func drawClass(rng *rand.Rand, m Mix) Class {
	u := rng.Float64()
	for _, c := range []struct {
		p  float64
		cl Class
	}{
		{m.Malformed, ClassMalformed},
		{m.UnresolvableSender, ClassUnresolvable},
		{m.RelayAttempt, ClassRelayAttempt},
		{m.RejectedSender, ClassRejectedSender},
		{m.UnknownRecipient, ClassUnknownRecipient},
		{m.WhiteKnown, ClassWhite},
		{m.BlackKnown, ClassBlack},
		{m.LegitNew, ClassLegitNew},
		{m.Newsletter, ClassNewsletter},
		{m.NullSender, ClassNullSender},
	} {
		if u < c.p {
			return c.cl
		}
		u -= c.p
	}
	return ClassSpam
}

// injectOne generates and delivers one message to a company's MTA-IN.
// It runs on the lane's goroutine: all randomness comes from the lane
// RNG, and ground-truth writes stage in lane-local maps merged at the
// next barrier (mergeLaneState) — no shared lock per message.
func (f *Fleet) injectOne(ln *companyLane) {
	f.injectClass(ln, drawClass(ln.rng, ln.profile.Mix))
}

// injectClass generates and delivers one message of a fixed class
// (surge bursts inject extra ClassSpam directly, bypassing the mix).
func (f *Fleet) injectClass(ln *companyLane, class Class) {
	comp, p := ln.comp, ln.profile
	msg := f.buildMessage(ln, p, class)
	ln.classCounts[class]++

	// Greylisting (when enabled) gates messages that would otherwise be
	// accepted: real senders' MTAs retry after the delay, botnet cannons
	// mostly do not. Rejections for unknown users etc. stay permanent.
	if gl := f.greylists[comp.Name]; gl != nil && comp.Engine.CheckMTAIn(msg) == core.Accepted {
		if gl.Check(msg.ClientIP, msg.EnvelopeFrom, msg.Rcpt) == greylist.TempReject {
			retries := class == ClassWhite || class == ClassLegitNew || class == ClassNewsletter ||
				ln.rng.Float64() < f.Cfg.SpamRetryProb
			if !retries {
				retries = comp.Engine.Whitelists().IsWhite(msg.Rcpt, msg.EnvelopeFrom)
			}
			delay := 16*time.Minute + time.Duration(ln.rng.Int63n(int64(30*time.Minute)))
			if !retries {
				putMsg(msg) // dropped by the greylist, never retried
				return
			}
			ln.sched.After(delay, func() {
				msg.Received = ln.clk.Now()
				if gl.Check(msg.ClientIP, msg.EnvelopeFrom, msg.Rcpt) == greylist.Accept {
					f.deliverToEngine(ln, msg, class)
				} else {
					putMsg(msg)
				}
			})
			return
		}
	}
	f.deliverToEngine(ln, msg, class)
}

// deliverToEngine hands an (un-greylisted or retried) message to the
// engine, passing the admission controller first when overload control
// is on (greylisting already ran: the 451s compose, greylist at RCPT
// and admission at delivery, matching the live gateway's ordering).
func (f *Fleet) deliverToEngine(ln *companyLane, msg *mail.Message, class Class) {
	if ln.ctl == nil {
		f.deliverNow(ln, msg, class, 0)
		return
	}
	f.admitAndDeliver(ln, msg, class, 0)
}

// deliverNow performs the actual engine handoff and captures gray-spool
// context. attempt counts prior admission sheds of this message.
func (f *Fleet) deliverNow(ln *companyLane, msg *mail.Message, class Class, attempt int) {
	if attempt > 0 && class.Wanted() {
		ln.surgeStats.hamRecovered++
	}
	verdict := ln.comp.Engine.Receive(msg)
	if verdict != 0 { // core.Accepted == 0
		// MTA rejections retain nothing: recycle the message.
		putMsg(msg)
		return
	}
	// Capture gray-spool context for the offline SPF what-if (E14),
	// staged lane-locally and merged at the barrier.
	switch class {
	case ClassLegitNew, ClassNewsletter, ClassSpam, ClassRelayAttempt, ClassNullSender:
		ln.grayLog[msg.ID] = GrayEntry{
			MsgID:    msg.ID,
			From:     msg.EnvelopeFrom,
			ClientIP: msg.ClientIP,
			Subject:  msg.Subject,
		}
	}
}

// buildMessage constructs the mail.Message for a class, drawing from the
// lane RNG and minting a lane-scoped ID (globally unique because lane
// prefixes are company names).
func (f *Fleet) buildMessage(ln *companyLane, p CompanyProfile, class Class) *mail.Message {
	comp := ln.comp
	rng := ln.rng
	m := getMsg()
	m.ID = ln.ids.Next()
	m.Received = ln.clk.Now()
	// Ground truth is only consulted for messages that can reach the
	// gray spool (digest weeding, spurious-delivery scoring); skipping
	// the rest keeps long runs lean.
	switch class {
	case ClassLegitNew, ClassNewsletter, ClassSpam, ClassNullSender, ClassRelayAttempt:
		ln.truth[m.ID] = class
	}

	users := f.users[comp.Name]
	randUser := func() mail.Address { return users[rng.Intn(len(users))] }
	randBot := func() botIP { return f.botnet[rng.Intn(len(f.botnet))] }
	legitIPFor := func(domain string) string {
		host := ln.names.concat(&ln.scratch, "mail.", domain)
		if ips, err := f.resolve.LookupA(host); err == nil && len(ips) > 0 {
			return ips[0]
		}
		return "192.0.2.250"
	}

	switch class {
	case ClassMalformed:
		m.EnvelopeFrom = f.innocents[rng.Intn(len(f.innocents))]
		m.Rcpt = mail.Address{} // unparsable recipient
		m.Subject = "malformed addressing"
		m.Size = 900 + rng.Intn(2000)
		m.ClientIP = randBot().ip

	case ClassUnresolvable:
		dom := f.unresolvable[rng.Intn(len(f.unresolvable))]
		m.EnvelopeFrom = mail.Address{Local: ln.numbered("x", rng.Intn(10000)), Domain: dom}
		m.Rcpt = randUser()
		m.Subject = makeSubject(rng, "")
		m.Size = 1500 + rng.Intn(4000)
		m.ClientIP = randBot().ip

	case ClassRelayAttempt:
		m.EnvelopeFrom = f.innocents[rng.Intn(len(f.innocents))]
		if p.OpenRelay {
			// Open relays accept mail for their relayed domains,
			// addressed to arbitrary mailboxes.
			m.Rcpt = mail.Address{
				Local:  ln.numbered("box", rng.Intn(5000)),
				Domain: ln.names.concat(&ln.scratch, "relay-", p.Domain),
			}
		} else {
			m.Rcpt = mail.Address{Local: "info", Domain: f.foreignDomain}
		}
		camp := f.pickSpamCampaign(ln)
		m.Subject = camp.Subject
		m.Size = camp.MsgSize
		m.ClientIP = randBot().ip

	case ClassRejectedSender:
		m.EnvelopeFrom = f.rejectedBy[comp.Name]
		m.Rcpt = randUser()
		m.Subject = "message from rejected sender"
		m.Size = 1200
		m.ClientIP = randBot().ip

	case ClassUnknownRecipient:
		m.EnvelopeFrom = f.innocents[rng.Intn(len(f.innocents))]
		m.Rcpt = mail.Address{
			Local:  ln.numbered("harvest", rng.Intn(1000000)),
			Domain: p.Domain,
		}
		camp := f.pickSpamCampaign(ln)
		m.Subject = camp.Subject
		m.Size = camp.MsgSize
		m.ClientIP = randBot().ip

	case ClassWhite:
		u := randUser()
		m.Rcpt = u
		seeds := f.seededWL[u.Canonical()]
		if len(seeds) == 0 {
			m.EnvelopeFrom = f.legitPool[rng.Intn(len(f.legitPool))]
		} else {
			m.EnvelopeFrom = seeds[rng.Intn(len(seeds))]
		}
		m.Subject = makeSubject(rng, "re")
		m.Size = 4000 + rng.Intn(45000)
		m.ClientIP = legitIPFor(m.EnvelopeFrom.Domain)

	case ClassBlack:
		u := randUser()
		m.Rcpt = u
		bl := f.seededBL[u.Canonical()]
		if len(bl) == 0 {
			m.EnvelopeFrom = f.innocents[rng.Intn(len(f.innocents))]
		} else {
			m.EnvelopeFrom = bl[rng.Intn(len(bl))]
		}
		m.Subject = makeSubject(rng, "")
		m.Size = 1500 + rng.Intn(4000)
		m.ClientIP = legitIPFor(m.EnvelopeFrom.Domain)

	case ClassLegitNew:
		m.Rcpt = randUser()
		m.EnvelopeFrom = f.legitPool[rng.Intn(len(f.legitPool))]
		m.Subject = makeSubject(rng, "hello")
		m.Size = 4000 + rng.Intn(30000)
		m.ClientIP = legitIPFor(m.EnvelopeFrom.Domain)

	case ClassNewsletter:
		camp := f.newsCamps[rng.Intn(len(f.newsCamps))]
		m.Rcpt = randUser()
		m.EnvelopeFrom = camp.Senders[rng.Intn(len(camp.Senders))]
		m.Subject = camp.Subject
		m.Size = camp.MsgSize
		m.ClientIP = legitIPFor(m.EnvelopeFrom.Domain)

	case ClassNullSender:
		m.EnvelopeFrom = mail.Null
		m.Rcpt = randUser()
		m.Subject = "Delivery Status Notification (Failure) for your recent message attempt"
		m.Size = 2200
		m.ClientIP = legitIPFor(f.legitPool[0].Domain)

	default: // ClassSpam
		camp := f.pickSpamCampaign(ln)
		targets := f.laneTargets(camp, ln)
		m.Rcpt = targets[rng.Intn(len(targets))]
		m.EnvelopeFrom = camp.SpoofPool[rng.Intn(len(camp.SpoofPool))]
		m.Subject = camp.Subject
		m.Size = camp.MsgSize
		bot := randBot()
		m.ClientIP = bot.ip
		if rng.Float64() < camp.VirusProb {
			m.Body = "please see the attached file " + filters.EICAR
		}
	}
	m.HeaderFrom = m.EnvelopeFrom
	if m.Body == "" {
		m.Body = bodyFiller[:min(m.Size, len(bodyFiller))]
	}
	return m
}

// pickSpamCampaign selects an active campaign covering the company, by
// weight; it degrades to any covering campaign, then to any campaign
// (spam never stops entirely). The covering list is precomputed per
// lane (buildCompanies) and the active scratch slice is reused, so a
// pick costs no locks and no steady-state allocations.
func (f *Fleet) pickSpamCampaign(ln *companyLane) *Campaign {
	// f.day is written only between days, while every lane is parked at
	// the final barrier, so the unlocked read is safe.
	dayIdx := f.day
	active := ln.active[:0]
	var total float64
	for _, c := range ln.covering {
		if c.ActiveOn(dayIdx) {
			active = append(active, c)
			total += c.Weight
		}
	}
	ln.active = active
	if len(active) == 0 {
		if len(ln.covering) > 0 {
			return ln.covering[ln.rng.Intn(len(ln.covering))]
		}
		return f.spamCamps[ln.rng.Intn(len(f.spamCamps))]
	}
	u := ln.rng.Float64() * total
	for _, c := range active {
		if u < c.Weight {
			return c
		}
		u -= c.Weight
	}
	return active[len(active)-1]
}

// laneTargets returns (memoised per lane) the subset of the company's
// users a campaign mails: spammers recycle harvested lists, so the same
// users get hit repeatedly. The selection comes from a stream derived
// from (seed, campaign, company) so it is identical no matter which
// lane — or how many lanes — computes it; each lane therefore keeps its
// own copy without cross-lane locking.
func (f *Fleet) laneTargets(c *Campaign, ln *companyLane) []mail.Address {
	if ts, ok := ln.targets[c.ID]; ok {
		return ts
	}
	users := f.users[ln.comp.Name]
	n := min(max(len(users)*2/5, 5), len(users))
	rng := rand.New(rand.NewSource(deriveSeed(f.Cfg.Seed, saltCampaignTargets, int64(c.ID), int64(ln.idx))))
	perm := rng.Perm(len(users))
	ts := make([]mail.Address, n)
	for i := 0; i < n; i++ {
		ts[i] = users[perm[i]]
	}
	ln.targets[c.ID] = ts
	return ts
}

// numbered renders prefix+decimal(n) through the lane scratch buffer, so
// minting a synthetic local part costs exactly the one unavoidable
// allocation (the returned string) instead of fmt.Sprintf's several.
func (ln *companyLane) numbered(prefix string, n int) string {
	ln.scratch = strconv.AppendInt(append(ln.scratch[:0], prefix...), int64(n), 10)
	return string(ln.scratch)
}

// dailyChores records digests, simulates digest weeding and outbound
// user mail, and expires old quarantine entries — for one lane's
// company, on that lane's goroutine.
func (f *Fleet) dailyChores(ln *companyLane, dayIdx int) {
	today := f.Start.Add(time.Duration(dayIdx) * day)
	comp, p := ln.comp, ln.profile
	eng := comp.Engine
	for _, u := range f.users[comp.Name] {
		pending := eng.PendingForUser(u)
		f.Digests.Record(u, today, pending)

		diligent := ln.rng.Float64() < p.DigestDiligence
		if diligent && len(pending) > 0 {
			f.weedDigest(ln, u, pending)
		}

		// Outbound mail: implicit whitelisting plus the §5.1
		// user-mail exposure channel. Rates are per-user skewed.
		nOut := poisson(ln.rng, p.OutboundPerUserDay*f.activity[u.Canonical()])
		for i := 0; i < nOut; i++ {
			f.sendOutbound(ln, u)
		}
	}
	eng.ExpireQuarantine()
}

// weedDigest simulates the user working through their digest: authorize
// wanted mail, delete junk, leave the rest.
func (f *Fleet) weedDigest(ln *companyLane, u mail.Address, pending []digest.Item) {
	for _, item := range pending {
		class, _ := f.laneTruth(ln, item.MsgID)
		authorize := class.Wanted() && ln.rng.Float64() < f.Cfg.DigestAuthorizeProb
		del := !class.Wanted() && ln.rng.Float64() < f.Cfg.DigestDeleteProb
		switch {
		case authorize:
			_ = ln.comp.Engine.AuthorizeFromDigest(u, item.MsgID)
		case del:
			_ = ln.comp.Engine.DeleteFromDigest(u, item.MsgID)
		}
	}
}

// sendOutbound models one outbound user message: 80% to an existing
// contact, 20% to a brand-new address (which then gets auto-whitelisted).
func (f *Fleet) sendOutbound(ln *companyLane, u mail.Address) {
	var to mail.Address
	seeds := f.seededWL[u.Canonical()]
	if len(seeds) > 0 && ln.rng.Float64() < 0.8 {
		to = seeds[ln.rng.Intn(len(seeds))]
	} else {
		to = f.legitPool[ln.rng.Intn(len(f.legitPool))]
	}
	ln.comp.Engine.UserSentMail(u, to)
	f.Net.SendUserMail(ln.comp, to)
}

// poisson draws from a Poisson distribution via Knuth's method (fine for
// the small lambdas used here).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// _ = simnet reference kept: Company originates there.
var _ *simnet.Company
