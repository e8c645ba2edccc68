package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mail"
)

const longSubject = "buy cheap meds online now best price guaranteed today only friend"
const otherSubject = "exclusive summer sale save money on luxury replica watches free shipping"

// botnetItems builds n items with random senders across many domains.
func botnetItems(n int, subject string, rng *rand.Rand) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Subject: subject,
			Sender: mail.Address{
				Local:  fmt.Sprintf("u%d%c%c", rng.Intn(1000000), 'a'+byte(rng.Intn(26)), 'a'+byte(rng.Intn(26))),
				Domain: fmt.Sprintf("dom%d.example", rng.Intn(200)),
			},
			Bounced: rng.Float64() < 0.31,
		}
	}
	return items
}

// newsletterItems builds n items from a few similar senders.
func newsletterItems(n int, subject string, rng *rand.Rand) []Item {
	senders := []mail.Address{
		mail.MustParseAddress("dept-x.p@scn-1.com"),
		mail.MustParseAddress("dept-x.q@scn-1.com"),
		mail.MustParseAddress("dept-x.p@scn-2.com"),
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Subject: subject,
			Sender:  senders[rng.Intn(len(senders))],
			Solved:  rng.Float64() < 0.9,
		}
	}
	return items
}

func TestBuildGroupsBySubject(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := append(botnetItems(100, longSubject, rng), botnetItems(80, otherSubject, rng)...)
	clusters := Build(items, MinSize)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	// Sorted by size descending.
	if clusters[0].Size() != 100 || clusters[1].Size() != 80 {
		t.Fatalf("sizes = %d, %d", clusters[0].Size(), clusters[1].Size())
	}
}

func TestShortSubjectsIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := botnetItems(100, "short subject", rng)
	if got := Build(items, MinSize); len(got) != 0 {
		t.Fatalf("short-subject cluster formed: %d", len(got))
	}
}

func TestSmallClustersDiscarded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := botnetItems(49, longSubject, rng)
	if got := Build(items, MinSize); len(got) != 0 {
		t.Fatalf("sub-threshold cluster kept: %d", len(got))
	}
	items = botnetItems(50, longSubject, rng)
	if got := Build(items, MinSize); len(got) != 1 {
		t.Fatalf("at-threshold cluster dropped")
	}
}

func TestSenderSimilaritySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	clusters := Build(append(
		newsletterItems(100, longSubject, rng),
		botnetItems(100, otherSubject, rng)...), MinSize)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	var hi, lo *Cluster
	for _, c := range clusters {
		if c.HighSimilarity {
			hi = c
		} else {
			lo = c
		}
	}
	if hi == nil || lo == nil {
		t.Fatalf("similarity split failed: %+v", clusters)
	}
	if hi.Subject != longSubject {
		t.Fatalf("newsletter cluster classified low-sim (sim=%v, div=%v)", hi.SenderSimilarity, hi.DomainDiversity)
	}
	if hi.SenderSimilarity <= lo.SenderSimilarity {
		t.Fatalf("similarity ordering wrong: %v <= %v", hi.SenderSimilarity, lo.SenderSimilarity)
	}
	if lo.DomainDiversity <= hi.DomainDiversity {
		t.Fatalf("diversity ordering wrong")
	}
}

func TestClusterCountsAndFractions(t *testing.T) {
	items := []Item{}
	for i := 0; i < 60; i++ {
		items = append(items, Item{
			Subject: longSubject,
			Sender:  mail.Address{Local: fmt.Sprintf("x%d", i), Domain: "d.example"},
			Bounced: i < 20,
			Solved:  i == 59,
		})
	}
	clusters := Build(items, MinSize)
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	c := clusters[0]
	if c.Bounced() != 20 || c.Solved() != 1 {
		t.Fatalf("bounced=%d solved=%d", c.Bounced(), c.Solved())
	}
	if c.BouncedFraction() != 20.0/60 || c.SolvedFraction() != 1.0/60 {
		t.Fatalf("fractions wrong: %v, %v", c.BouncedFraction(), c.SolvedFraction())
	}
}

func TestSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := append(newsletterItems(120, longSubject, rng), botnetItems(200, otherSubject, rng)...)
	// A third cluster with zero solves.
	third := "important notice about your account payment statement update required immediately today"
	items = append(items, botnetItems(75, third, rng)...)

	st := Summarize(Build(items, MinSize))
	if st.Clusters != 3 {
		t.Fatalf("clusters = %d", st.Clusters)
	}
	if st.HighSim != 1 || st.LowSim != 2 {
		t.Fatalf("split = %d/%d", st.HighSim, st.LowSim)
	}
	if st.WithSolved < 1 {
		t.Fatal("no cluster with solved challenges found")
	}
	if st.HighSimSolved < 0.5 {
		t.Fatalf("high-sim solved fraction = %v, want high", st.HighSimSolved)
	}
	if st.LowSimSolved > 0.05 {
		t.Fatalf("low-sim solved fraction = %v, want ~0", st.LowSimSolved)
	}
	if st.LowSimBounced < 0.2 || st.LowSimBounced > 0.45 {
		t.Fatalf("low-sim bounced = %v, want ~0.31", st.LowSimBounced)
	}
	if st.LargestCluster != 200 || st.SmallestCluster != 75 {
		t.Fatalf("sizes = %d/%d", st.LargestCluster, st.SmallestCluster)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Clusters != 0 || st.HighSimSolved != 0 {
		t.Fatal("empty Summarize not zero")
	}
}

func TestWordCount(t *testing.T) {
	cases := map[string]int{
		"":                    0,
		"one":                 1,
		"two words":           2,
		"  leading spaces":    2,
		"a b c d e f g h i j": 10,
	}
	for s, want := range cases {
		if got := wordCount(s); got != want {
			t.Errorf("wordCount(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestConfigFillDefaults pins the thresholds to the paper's §4.1
// choices: subjects of at least 10 words, clusters of at least 50
// messages.
func TestConfigFillDefaults(t *testing.T) {
	if minWords != 10 || MinSize != 50 || maxPairs != 500 {
		t.Fatalf("thresholds = %d words, %d messages, %d pairs", minWords, MinSize, maxPairs)
	}
}

func TestSimilaritySamplingCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// 10k items must not take quadratic time; just verify it runs and
	// returns a sane value.
	items := botnetItems(10000, longSubject, rng)
	clusters := Build(items, MinSize)
	if len(clusters) != 1 {
		t.Fatal("cluster missing")
	}
	s := clusters[0].SenderSimilarity
	if s < 0 || s > 1 {
		t.Fatalf("similarity = %v", s)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var items []Item
	for k := 0; k < 20; k++ {
		subj := fmt.Sprintf("campaign %d %s", k, longSubject)
		items = append(items, botnetItems(500, subj, rng)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(items, MinSize)
	}
}
