package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/mail"
)

// Class is the ground-truth label of a generated message. The CR system
// never sees it; the measurement pipeline uses it to score outcomes and
// to drive simulated user behaviour (digest weeding). One byte, because
// the fleet keeps one per generated message.
type Class uint8

// Traffic classes.
const (
	// ClassMalformed: syntactically broken addressing.
	ClassMalformed Class = iota
	// ClassUnresolvable: sender domain without DNS.
	ClassUnresolvable
	// ClassRelayAttempt: addressed to a domain the server may not serve.
	ClassRelayAttempt
	// ClassRejectedSender: administratively banned sender.
	ClassRejectedSender
	// ClassUnknownRecipient: spam to a non-existent local user.
	ClassUnknownRecipient
	// ClassWhite: mail from an already-whitelisted correspondent.
	ClassWhite
	// ClassBlack: mail from a blacklisted sender.
	ClassBlack
	// ClassLegitNew: first contact from a real human correspondent.
	ClassLegitNew
	// ClassNewsletter: automated marketing/newsletter mail.
	ClassNewsletter
	// ClassNullSender: bounce/DSN with the null reverse-path.
	ClassNullSender
	// ClassSpam: campaign spam aimed at an existing user.
	ClassSpam
)

// String returns the class label.
func (c Class) String() string {
	switch c {
	case ClassMalformed:
		return "malformed"
	case ClassUnresolvable:
		return "unresolvable"
	case ClassRelayAttempt:
		return "relay-attempt"
	case ClassRejectedSender:
		return "rejected-sender"
	case ClassUnknownRecipient:
		return "unknown-recipient"
	case ClassWhite:
		return "white"
	case ClassBlack:
		return "black"
	case ClassLegitNew:
		return "legit-new"
	case ClassNewsletter:
		return "newsletter"
	case ClassNullSender:
		return "null-sender"
	case ClassSpam:
		return "spam"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Wanted reports whether a user would want this message delivered (used
// by the simulated digest weeding).
func (c Class) Wanted() bool {
	return c == ClassWhite || c == ClassLegitNew || c == ClassNewsletter
}

// graySpool reports whether a message of this class can enter the gray
// spool, the only place its ground truth is ever read (digest weeding,
// spurious-delivery scoring, the Figure 12 SPF what-if).
func (c Class) graySpool() bool {
	switch c {
	case ClassLegitNew, ClassNewsletter, ClassSpam, ClassNullSender, ClassRelayAttempt:
		return true
	}
	return false
}

// subjectWords is the vocabulary for generated subjects. Subjects are
// built with >= 10 words so the §4.1 clustering (which ignores shorter
// subjects) can see them.
var subjectWords = []string{
	"account", "amazing", "best", "bonus", "cheap", "claim", "click", "customer",
	"deal", "delivery", "discount", "exclusive", "fast", "free", "friend",
	"guaranteed", "health", "important", "incredible", "instant", "invoice",
	"limited", "lowest", "luxury", "market", "medication", "meeting", "member",
	"money", "notice", "offer", "online", "order", "original", "payment",
	"pharmacy", "price", "prize", "product", "quality", "receipt", "replica",
	"reward", "sale", "satisfaction", "save", "secret", "secure", "shipping",
	"special", "statement", "stock", "subscription", "summer", "support",
	"today", "trusted", "update", "urgent", "watches", "weekly", "winner",
}

// makeSubject builds a deterministic >=10-word subject from the rng:
// the prefix, if any, then the words, space-separated. The subject is
// built in a stack buffer that fits the longest one, so it costs one
// allocation, the returned string.
func makeSubject(rng *rand.Rand, prefix string) string {
	n := 10 + rng.Intn(4)
	var buf [192]byte
	b := append(buf[:0], prefix...)
	for i := 0; i < n; i++ {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, subjectWords[rng.Intn(len(subjectWords))]...)
	}
	return string(b)
}

// SpoofMix is the distribution of envelope-sender categories used by
// botnet spam campaigns. These proportions drive the Figure 4(a)
// challenge delivery statuses: spoofed non-existent mailboxes bounce,
// innocent bystanders receive misdirected challenges, unreachable
// domains make challenges expire, and traps feed the blocklists.
type SpoofMix struct {
	NoUser      float64 // non-existent mailbox at a real domain
	Innocent    float64 // existing bystander mailbox
	Robot       float64 // existing automated mailbox (never reacts)
	Trap        float64 // spamtrap address
	Unreachable float64 // mailbox at an unreachable mail server
}

// DefaultSpoofMix is calibrated to land the study's challenge status
// distribution (49% delivered; 71.7% of the rest bounced-no-user). Trap
// is zero here because trap exposure is campaign-driven: only campaigns
// whose harvested address list was poisoned include trap addresses (see
// Campaign.TrapShare) — this is what decorrelates a server's blacklisting
// risk from its size, the §5.1 finding.
func DefaultSpoofMix() SpoofMix {
	return SpoofMix{NoUser: 0.50, Innocent: 0.26, Robot: 0.06, Trap: 0, Unreachable: 0.18}
}

// Campaign is one spam or marketing campaign: a fixed subject reused
// across all its messages (the §4.1 clustering key) plus a sender model.
type Campaign struct {
	ID      int
	Subject string
	// Newsletter marks high-sender-similarity campaigns (real marketing
	// programs with a handful of similar sender addresses and operators
	// who may solve challenges). Non-newsletter campaigns are botnet
	// spam with per-message spoofed senders.
	Newsletter bool
	// Senders is the newsletter sender pool (similar local parts).
	Senders []mail.Address
	// Diligence is the newsletter operator's challenge-solving
	// probability (the paper saw clusters from ~0 up to 97% solved).
	Diligence float64
	// VirusProb is the probability a message carries an AV signature.
	VirusProb float64
	// MsgSize is the byte size of campaign messages.
	MsgSize int
	// StartDay/EndDay bound the campaign's activity window (inclusive,
	// 0-based simulation days).
	StartDay, EndDay int
	// Weight is the relative share of spam volume this campaign gets
	// while active.
	Weight float64
	// TrapShare is the fraction of this campaign's spoofed senders that
	// are spamtrap addresses (non-zero only for campaigns built from a
	// poisoned harvested list).
	TrapShare float64
	// SpoofPool is the finite set of spoofed senders a botnet campaign
	// rotates through. Finite pools mean repeat senders, which the CR
	// engine deduplicates — the reason a spam cluster of N messages
	// yields far fewer than N challenges.
	SpoofPool []mail.Address
}

// ActiveOn reports whether the campaign sends on the given day.
func (c *Campaign) ActiveOn(day int) bool {
	return day >= c.StartDay && day <= c.EndDay
}
