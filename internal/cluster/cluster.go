// Package cluster reimplements the paper's §4.1 spam-campaign analysis:
// messages in the gray spool (those for which a challenge was generated)
// are grouped by identical subject, considering only subjects of at least
// ten words, and only clusters of at least fifty messages are kept —
// deliberately conservative thresholds that trade recall for a negligible
// false-merge rate, exactly as the authors argue.
//
// Each cluster is then split by sender similarity: campaigns whose
// messages come from a few, near-identical sender addresses (newsletters
// and marketing, e.g. dept-x.p@scn-1.com vs dept-x.q@scn-2.com) versus
// campaigns whose senders are scattered across many domains with random
// local parts (botnet spam).
package cluster

import (
	"sort"

	"repro/internal/mail"
)

// Item is one challenged gray-spool message as the clustering sees it.
type Item struct {
	Subject string
	Sender  mail.Address
	// Bounced: the challenge for this message bounced (no such user).
	Bounced bool
	// Solved: the challenge for this message was solved.
	Solved bool
}

// The paper's clustering thresholds (§4.1).
const (
	// minWords is the minimum subject length in words (paper: 10).
	minWords = 10
	// MinSize is the paper's minimum cluster size in messages; a
	// scaled-down run passes Build a smaller one.
	MinSize = 50
	// similarityThreshold splits high- from low-sender-similarity
	// clusters.
	similarityThreshold = 0.55
	// maxPairs caps the number of sender pairs sampled per cluster when
	// estimating similarity (full pairwise comparison is quadratic).
	maxPairs = 500
)

// Cluster is a group of messages sharing a subject.
type Cluster struct {
	Subject string
	Items   []Item
	// SenderSimilarity is the mean pairwise similarity of sender local
	// parts (sampled), in [0, 1].
	SenderSimilarity float64
	// DomainDiversity is distinct sender domains / messages, in (0, 1].
	DomainDiversity float64
	// DistinctSenders is the number of unique sender addresses.
	DistinctSenders int
	// HighSimilarity classifies the cluster (newsletter-like vs botnet).
	HighSimilarity bool
}

// Size returns the number of messages in the cluster.
func (c *Cluster) Size() int { return len(c.Items) }

// Bounced returns how many of the cluster's challenges bounced.
func (c *Cluster) Bounced() int {
	n := 0
	for _, it := range c.Items {
		if it.Bounced {
			n++
		}
	}
	return n
}

// Solved returns how many of the cluster's challenges were solved.
func (c *Cluster) Solved() int {
	n := 0
	for _, it := range c.Items {
		if it.Solved {
			n++
		}
	}
	return n
}

// BouncedFraction returns Bounced()/Size().
func (c *Cluster) BouncedFraction() float64 {
	if len(c.Items) == 0 {
		return 0
	}
	return float64(c.Bounced()) / float64(len(c.Items))
}

// SolvedFraction returns Solved()/Size().
func (c *Cluster) SolvedFraction() float64 {
	if len(c.Items) == 0 {
		return 0
	}
	return float64(c.Solved()) / float64(len(c.Items))
}

// Build groups items into clusters of at least minSize messages and
// computes the sender similarity split. Clusters are returned sorted by
// size (descending), ties by subject.
func Build(items []Item, minSize int) []*Cluster {
	bySubject := make(map[string][]Item)
	for _, it := range items {
		if wordCount(it.Subject) < minWords {
			continue
		}
		bySubject[it.Subject] = append(bySubject[it.Subject], it)
	}
	var out []*Cluster
	for subj, group := range bySubject {
		if len(group) < minSize {
			continue
		}
		c := &Cluster{Subject: subj, Items: group}
		c.SenderSimilarity = senderSimilarity(group)
		c.DomainDiversity = domainDiversity(group)
		c.DistinctSenders = distinctSenders(group)
		// The paper's first group: "clusters where emails are sent by a
		// very limited number of senders, or in which the sender
		// addresses are very similar to each other".
		c.HighSimilarity = c.DistinctSenders <= 8 ||
			c.SenderSimilarity >= similarityThreshold
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Items) != len(out[j].Items) {
			return len(out[i].Items) > len(out[j].Items)
		}
		return out[i].Subject < out[j].Subject
	})
	return out
}

func wordCount(s string) int {
	n, in := 0, false
	for i := 0; i < len(s); i++ {
		sp := s[i] == ' ' || s[i] == '\t'
		if !sp && !in {
			n++
		}
		in = !sp
	}
	return n
}

// senderSimilarity estimates the mean pairwise local-part similarity by
// comparing consecutive pairs plus a deterministic stride sample, capped
// at maxPairs comparisons.
func senderSimilarity(items []Item) float64 {
	if len(items) < 2 {
		return 1
	}
	total, n := 0.0, 0
	stride := 1
	if len(items) > maxPairs {
		stride = len(items) / maxPairs
	}
	for i := 0; i+stride < len(items) && n < maxPairs; i += stride {
		total += mail.LocalSimilarity(items[i].Sender, items[i+stride].Sender)
		n++
	}
	if n == 0 {
		return 1
	}
	return total / float64(n)
}

func distinctSenders(items []Item) int {
	seen := make(map[string]struct{})
	for _, it := range items {
		seen[it.Sender.Key()] = struct{}{}
	}
	return len(seen)
}

func domainDiversity(items []Item) float64 {
	if len(items) == 0 {
		return 0
	}
	domains := make(map[string]struct{})
	for _, it := range items {
		domains[it.Sender.Domain] = struct{}{}
	}
	return float64(len(domains)) / float64(len(items))
}

// Stats is the Figure 6 aggregate over all clusters.
type Stats struct {
	Clusters        int
	WithSolved      int // clusters containing >= 1 solved challenge
	HighSim         int
	LowSim          int
	HighSimSolved   float64 // mean solved fraction among high-sim clusters
	HighSimBounced  float64
	LowSimSolved    float64
	LowSimBounced   float64
	LargestCluster  int
	SmallestCluster int
}

// Summarize computes the Figure 6 statistics.
func Summarize(clusters []*Cluster) Stats {
	st := Stats{}
	var hiSolved, hiBounced, loSolved, loBounced float64
	for _, c := range clusters {
		st.Clusters++
		if c.Solved() > 0 {
			st.WithSolved++
		}
		if c.Size() > st.LargestCluster {
			st.LargestCluster = c.Size()
		}
		if st.SmallestCluster == 0 || c.Size() < st.SmallestCluster {
			st.SmallestCluster = c.Size()
		}
		if c.HighSimilarity {
			st.HighSim++
			hiSolved += c.SolvedFraction()
			hiBounced += c.BouncedFraction()
		} else {
			st.LowSim++
			loSolved += c.SolvedFraction()
			loBounced += c.BouncedFraction()
		}
	}
	if st.HighSim > 0 {
		st.HighSimSolved = hiSolved / float64(st.HighSim)
		st.HighSimBounced = hiBounced / float64(st.HighSim)
	}
	if st.LowSim > 0 {
		st.LowSimSolved = loSolved / float64(st.LowSim)
		st.LowSimBounced = loBounced / float64(st.LowSim)
	}
	return st
}
