// Package workload synthesises the mail traffic of the 47 monitored
// companies. The paper's measurement data is proprietary, so this
// generator is the substitution: a seeded, parameterised population of
// companies, remote sender domains, spam campaigns, newsletters and
// legitimate correspondents whose class mix is calibrated to the
// proportions the paper reports (Figure 1/2/3 and the §2 drop table),
// while every downstream observable — challenge outcomes, blacklisting,
// delays, churn — emerges from the simulation dynamics.
package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// Mix is the per-message traffic-class distribution at a company's
// MTA-IN. Fields must sum to at most 1; the remainder is spam addressed
// to existing users (the gray-spool feedstock).
type Mix struct {
	// Malformed: syntactically invalid sender/recipient (drop table: 0.06%).
	Malformed float64
	// UnresolvableSender: spoofed sender domain with no DNS (4.19%).
	UnresolvableSender float64
	// RelayAttempt: addressed to a domain the server does not serve
	// (2.27%); open relays accept these for their relayed domains.
	RelayAttempt float64
	// RejectedSender: administratively rejected sender (0.03%).
	RejectedSender float64
	// UnknownRecipient: spam to harvested/dictionary local parts that do
	// not exist (the study's dominant drop reason, 62.36%).
	UnknownRecipient float64
	// WhiteKnown: mail from senders already in the recipient's whitelist.
	WhiteKnown float64
	// BlackKnown: mail from senders on the recipient's blacklist.
	BlackKnown float64
	// LegitNew: first-contact legitimate mail (new human correspondent).
	LegitNew float64
	// Newsletter: automated marketing/newsletter mail from campaign
	// senders with high sender similarity.
	Newsletter float64
	// NullSender: bounces/DSNs with the null reverse-path.
	NullSender float64
}

// DefaultMix is calibrated so the MTA-IN and dispatcher proportions land
// near the paper's Figure 1 (per 1,000 incoming: 757 dropped at MTA,
// 31 white, 4 black, 208 gray).
func DefaultMix() Mix {
	return Mix{
		Malformed:          0.0007,
		UnresolvableSender: 0.046,
		RelayAttempt:       0.025,
		RejectedSender:     0.0004,
		UnknownRecipient:   0.685,
		WhiteKnown:         0.031,
		BlackKnown:         0.004,
		LegitNew:           0.0015,
		Newsletter:         0.0035,
		NullSender:         0.002,
	}
}

// jitterMix returns a copy of m with each class probability scaled by a
// company-specific factor in [1-j, 1+j], producing the cross-company
// variability visible in the paper's Figure 5 histograms.
func jitterMix(m Mix, rng *rand.Rand, j float64) Mix {
	f := func(p float64) float64 {
		v := p * (1 + (rng.Float64()*2-1)*j)
		if v < 0 {
			return 0
		}
		return v
	}
	return Mix{
		Malformed:          f(m.Malformed),
		UnresolvableSender: f(m.UnresolvableSender),
		RelayAttempt:       f(m.RelayAttempt),
		RejectedSender:     f(m.RejectedSender),
		UnknownRecipient:   f(m.UnknownRecipient),
		WhiteKnown:         f(m.WhiteKnown),
		BlackKnown:         f(m.BlackKnown),
		LegitNew:           f(m.LegitNew),
		Newsletter:         f(m.Newsletter),
		NullSender:         f(m.NullSender),
	}
}

// CompanyProfile parameterises one installation.
type CompanyProfile struct {
	// Name and Domain identify the company.
	Name   string
	Domain string
	// Users is the number of protected accounts.
	Users int
	// DailyVolume is the expected number of messages/day at the MTA-IN.
	DailyVolume int
	// OpenRelay mirrors the 13-of-47 open-relay installations.
	OpenRelay bool
	// SplitMTAOut gives challenges their own IP (a third of the study's
	// systems).
	SplitMTAOut bool
	// SeedWhitelist is the number of pre-existing whitelist entries per
	// user (historical contacts).
	SeedWhitelist int
	// OutboundPerUserDay is the expected outbound messages per user per
	// day (drives implicit whitelisting and the §5.1 user-mail channel).
	OutboundPerUserDay float64
	// DigestDiligence is the probability a user processes their digest on
	// a given day (authorizing wanted mail, deleting junk).
	DigestDiligence float64
	// Mix is this company's traffic-class distribution.
	Mix Mix
}

// DefaultProfiles builds n company profiles resembling the study's
// population: most companies under 500 users, a few much larger, 13/47
// open relays, a third with split MTA-OUT. The distribution shapes match
// the Figure 5 histograms.
func DefaultProfiles(n int, rng *rand.Rand) []CompanyProfile {
	profiles := make([]CompanyProfile, n)
	openRelays := n * 13 / 47
	split := n / 3
	for i := range profiles {
		var users int
		switch {
		case i%9 == 8: // a few big installations
			users = 800 + rng.Intn(1800)
		case i%3 == 2:
			users = 150 + rng.Intn(350)
		default:
			users = 20 + rng.Intn(130)
		}
		// Volume roughly tracks users but with heavy noise — the paper
		// found users and email volume only loosely correlated.
		volume := users*(8+rng.Intn(25)) + rng.Intn(500)
		profiles[i] = CompanyProfile{
			Name:               fmt.Sprintf("company-%02d", i),
			Domain:             fmt.Sprintf("corp%02d.example", i),
			Users:              users,
			DailyVolume:        volume,
			OpenRelay:          i < openRelays,
			SplitMTAOut:        i%3 == 0 && split > 0,
			SeedWhitelist:      8 + rng.Intn(40),
			OutboundPerUserDay: 0.2 + rng.Float64()*0.8,
			DigestDiligence:    0.2 + rng.Float64()*0.6,
			Mix:                jitterMix(DefaultMix(), rng, 0.25),
		}
	}
	return profiles
}

// Durations used across the generator.
const (
	day = 24 * time.Hour
)
