package workload

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/logscan"
	"repro/internal/mail"
	"repro/internal/maillog"
)

// TestFleetLogCrossValidation runs a fleet with the decision log
// attached and verifies the log-derived statistics equal the engines'
// in-process counters — the methodology equivalence the paper's
// log-crawling measurement pipeline rests on, at fleet scale.
func TestFleetLogCrossValidation(t *testing.T) {
	mail.ResetIDCounter()
	var sb strings.Builder
	w := maillog.NewWriter(&sb)

	cfg := smallConfig(29)
	cfg.LogSink = w.Write
	f := NewFleet(cfg)
	f.Run(2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	agg, err := logscan.Scan(strings.NewReader(sb.String()), logscan.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if agg.BadLines != 0 {
		t.Fatalf("unparsable lines = %d", agg.BadLines)
	}

	// Fleet-wide totals.
	var incoming, white, gray, challenges, filterDrops int64
	for _, c := range f.Companies {
		m := c.Engine.Metrics()
		incoming += m.MTAIncoming
		white += m.SpoolWhite
		gray += m.SpoolGray
		challenges += m.ChallengesSent
		filterDrops += m.TotalFilterDropped()
	}
	tot := agg.Total()
	if tot.Incoming != incoming {
		t.Errorf("incoming: log %d vs engines %d", tot.Incoming, incoming)
	}
	if tot.Spools["white"] != white || tot.Spools["gray"] != gray {
		t.Errorf("spools: log %+v vs engines white=%d gray=%d", tot.Spools, white, gray)
	}
	if tot.Challenges != challenges {
		t.Errorf("challenges: log %d vs engines %d", tot.Challenges, challenges)
	}
	var logFilterDrops int64
	for _, v := range tot.FilterDrops {
		logFilterDrops += v
	}
	if logFilterDrops != filterDrops {
		t.Errorf("filter drops: log %d vs engines %d", logFilterDrops, filterDrops)
	}

	// Per-company coverage: every company appears in the log.
	if got := len(agg.Companies()); got != len(f.Companies) {
		t.Errorf("log companies = %d, want %d", got, len(f.Companies))
	}
	// And each company's incoming matches its engine.
	for _, c := range f.Companies {
		la := agg.ByCompany[c.Name]
		if la == nil {
			t.Fatalf("company %s missing from log", c.Name)
		}
		if la.Incoming != c.Engine.Metrics().MTAIncoming {
			t.Errorf("%s incoming: log %d vs engine %d",
				c.Name, la.Incoming, c.Engine.Metrics().MTAIncoming)
		}
	}

	// Web events: solves recorded in the log equal the network's solved
	// count.
	if int(tot.WebSolves) != f.Net.DeliveryStats().Solved {
		t.Errorf("web solves: log %d vs network %d", tot.WebSolves, f.Net.DeliveryStats().Solved)
	}
}

// TestInboxFoldMatchesLog: the lanes' inbox-sink fold and the decision
// log see the same delayed deliveries — one delay per deliver event via
// challenge or digest, and the challenge deliveries' message IDs.
func TestInboxFoldMatchesLog(t *testing.T) {
	mail.ResetIDCounter()
	var logIDs []string
	var logDigest int
	cfg := smallConfig(29)
	cfg.LogSink = func(ev maillog.Event) {
		if ev.Kind != maillog.KindDeliver {
			return
		}
		switch ev.Field("via") {
		case "challenge":
			logIDs = append(logIDs, ev.MsgID)
		case "digest":
			logDigest++
		}
	}
	f := NewFleet(cfg)
	f.Run(3)

	dd := f.Delayed()
	if len(logIDs) == 0 || logDigest == 0 {
		t.Fatalf("log has %d challenge and %d digest deliveries; the run should have both", len(logIDs), logDigest)
	}
	if len(dd.Challenge) != len(logIDs) || len(dd.ChallengeIDs) != len(logIDs) {
		t.Errorf("challenge deliveries: fold %d delays, %d IDs; log %d",
			len(dd.Challenge), len(dd.ChallengeIDs), len(logIDs))
	}
	if len(dd.Digest) != logDigest {
		t.Errorf("digest deliveries: fold %d, log %d", len(dd.Digest), logDigest)
	}
	// The log is flushed epoch by epoch and the fold is merged lane by
	// lane, so only the sets of IDs compare.
	got := slices.Clone(dd.ChallengeIDs)
	slices.Sort(got)
	slices.Sort(logIDs)
	if !slices.Equal(got, logIDs) {
		t.Errorf("challenge delivery IDs differ: fold %v, log %v", got, logIDs)
	}
}
