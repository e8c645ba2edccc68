// Reputation ablation: a paired ablation (paired.go) whose second fleet
// has the sender-reputation engine wired in (workload.Config.UseReputation).
// The driver reports what the subsystem buys — trusted senders skipping
// the probe filters via the engine fast path, suspect senders dropped
// before any probe runs — and what the score trajectories look like for
// the two sender populations the paper contrasts: stable newsletter
// operations versus botnet campaigns churning through spoofed senders
// and residential IPs.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/mail"
	"repro/internal/reputation"
	"repro/internal/workload"
)

// BandCount tallies how many (company, sender) pairs with recorded
// history sit in each reputation band.
type BandCount struct {
	Observed int // pairs with any evidence mass
	Trusted  int
	Neutral  int
	Suspect  int
}

func (b BandCount) add(v reputation.Verdict) BandCount {
	if v.Mass <= 0 {
		return b
	}
	b.Observed++
	switch v.Band {
	case reputation.Trusted:
		b.Trusted++
	case reputation.Suspect:
		b.Suspect++
	default:
		b.Neutral++
	}
	return b
}

// ReputationResult compares a baseline fleet against the same fleet with
// the reputation subsystem enabled.
type ReputationResult struct {
	// Baseline vs reputation-enabled counters.
	ChallengesBaseline int64
	ChallengesWithRep  int64
	WhiteBaseline      int64
	WhiteWithRep       int64
	GrayWithRep        int64

	// FastPathHits is how many gray messages from trusted senders skipped
	// the probe-filter chain entirely; FastPathRate is the fraction of the
	// gray spool that took the fast path.
	FastPathHits int64
	FastPathRate float64
	// ProbesPerGray is the length of the probe chain behind the reputation
	// check; ProbesSaved = FastPathHits × ProbesPerGray (a trusted message
	// that is not fast-pathed runs every probe, since only drops
	// short-circuit the chain).
	ProbesPerGray int64
	ProbesSaved   int64
	// SuspectDrops counts gray messages dropped by the reputation filter
	// before any probe filter spent a lookup on them.
	SuspectDrops int64
	// DegradedLookups counts fail-open store outages (zero without a fault
	// plan targeting "reputation").
	DegradedLookups int64

	// Score trajectories: band membership after the run for the stable
	// newsletter senders vs the botnet campaigns' spoofed senders, summed
	// over every (company, sender) pair with history.
	Newsletter BandCount
	Botnet     BandCount

	// StoreEntries / StoreRecords are summed across the fleet's stores.
	StoreEntries int64
	StoreRecords int64
}

// ReputationAblation runs the reputation ablation: the second fleet has
// per-company sender-reputation stores feeding the adaptive filter
// stage.
func ReputationAblation(seed int64, companies, days int) ReputationResult {
	cfg := pairedConfig(seed, companies, days)
	base := sumsOf(newRun(cfg, nil))
	armed := newRun(cfg, func(c *workload.Config) { c.UseReputation = true })
	fleet, rep := armed.Fleet, sumsOf(armed)

	out := ReputationResult{
		ChallengesBaseline: base.ChallengesSent,
		ChallengesWithRep:  rep.ChallengesSent,
		WhiteBaseline:      base.SpoolWhite,
		WhiteWithRep:       rep.SpoolWhite,
		GrayWithRep:        rep.SpoolGray,
		FastPathHits:       rep.ReputationFastPath,
		ProbesPerGray:      3, // av + reverse-dns + rbl behind the reputation check
		SuspectDrops:       rep.FilterDropped["reputation"],
		DegradedLookups:    rep.FilterDegraded["reputation"],
	}
	out.ProbesSaved = out.FastPathHits * out.ProbesPerGray
	if out.GrayWithRep > 0 {
		out.FastPathRate = float64(out.FastPathHits) / float64(out.GrayWithRep)
	}

	// Trajectories: the same sender address scored at every company that
	// saw it. Newsletter senders are stable (same address, same IP, some
	// solving challenges); botnet campaigns spoof a pool of addresses from
	// churning residential IPs.
	newsSenders := make(map[string]mail.Address)
	for _, c := range fleet.NewsletterCampaigns() {
		for _, s := range c.Senders {
			newsSenders[s.Key()] = s
		}
	}
	botSenders := make(map[string]mail.Address)
	for _, c := range fleet.SpamCampaigns() {
		for _, s := range c.SpoofPool {
			botSenders[s.Key()] = s
		}
	}
	for _, c := range fleet.Companies {
		st := fleet.Reputation(c.Name)
		if st == nil {
			continue
		}
		stats := st.Stats()
		out.StoreEntries += int64(stats.Entries)
		out.StoreRecords += stats.Records
		for _, s := range newsSenders {
			out.Newsletter = out.Newsletter.add(st.Score(s, ""))
		}
		for _, s := range botSenders {
			out.Botnet = out.Botnet.add(st.Score(s, ""))
		}
	}
	return out
}

// Render formats the ablation as a deterministic report.
func (r ReputationResult) Render() string {
	var b strings.Builder
	b.WriteString(renderPaired("Reputation ablation — identical seed, with vs without the sender-reputation stage", "rep",
		pairedRow{"challenges sent", r.ChallengesBaseline, r.ChallengesWithRep},
		pairedRow{"white-spool deliveries", r.WhiteBaseline, r.WhiteWithRep}))
	b.WriteString("\n")
	fmt.Fprintf(&b, "gray spool (with-rep run):        %d\n", r.GrayWithRep)
	fmt.Fprintf(&b, "fast-path hits (probe chain skipped): %d (%.2f%% of gray)\n",
		r.FastPathHits, r.FastPathRate*100)
	fmt.Fprintf(&b, "probe invocations saved:          %d (%d probes behind the reputation check)\n",
		r.ProbesSaved, r.ProbesPerGray)
	fmt.Fprintf(&b, "suspect-band drops before probes: %d\n", r.SuspectDrops)
	fmt.Fprintf(&b, "degraded (fail-open) lookups:     %d\n", r.DegradedLookups)
	fmt.Fprintf(&b, "store entries / records:          %d / %d\n", r.StoreEntries, r.StoreRecords)
	b.WriteString("\nscore trajectories (company×sender pairs with history):\n")
	row := func(name string, c BandCount) {
		fmt.Fprintf(&b, "  %-22s observed=%-6d trusted=%-6d neutral=%-6d suspect=%-6d\n",
			name, c.Observed, c.Trusted, c.Neutral, c.Suspect)
	}
	row("newsletter senders", r.Newsletter)
	row("botnet spoofed senders", r.Botnet)
	return b.String()
}
