package experiments

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/mail"
)

// TestDSNFeedbackCrossValidation is the end-to-end acceptance check for
// the DSN feedback loop: with EmitDSNs on, engines learn challenge
// fates only by parsing RFC 3464 bounces, and the bounce flags feeding
// the §4.1 clustering must reproduce the simulator's omniscient truth.
func TestDSNFeedbackCrossValidation(t *testing.T) {
	cfg := Quick(42)
	cfg.EmitDSNs = true
	r := NewRun(cfg)
	cl := Clustering(r)
	t.Logf("bounced challenges: truth %d, observed %d", cl.TruthBounced, cl.ObservedBounced)
	if cl.TruthBounced == 0 {
		t.Fatal("run produced no bounced challenges to validate against")
	}
	if cl.ObservedBounced == 0 {
		t.Fatal("no DSN was parsed back into a bounce observation")
	}
	// Every truth-bounce travels back as a parseable DSN in the
	// simulation, so the log-derived view must match truth exactly.
	if cl.BounceAgreement < 1 {
		t.Fatalf("bounce agreement = %.4f (observed %d / truth %d), want 1.0",
			cl.BounceAgreement, cl.ObservedBounced, cl.TruthBounced)
	}

	// The engines' per-class counters carry the same evidence: each
	// observed bounce is a DSN some engine matched to a challenged
	// quarantine item, so the matched counts of the classes Clustering
	// reads add up to the observed set.
	var bounced, loops int64
	for _, c := range r.Fleet.Companies {
		m := c.Engine.Metrics()
		for _, class := range []mail.DSNClass{mail.DSNNoUser, mail.DSNNoDomain, mail.DSNBlocklisted} {
			bounced += m.ChallengeBounced[string(class)]
		}
		loops += m.ChallengeLoopSuppressed
	}
	if bounced != int64(cl.ObservedBounced) {
		t.Fatalf("engines matched %d challenge bounce(s), clustering observed %d",
			bounced, cl.ObservedBounced)
	}
	if loops != 0 {
		t.Fatalf("loop suppression fired %d time(s) in a single-CR fleet", loops)
	}

	// The clustering shape survives the switch from transport callback
	// to DSN feedback: botnet clusters still bounce more than
	// newsletter clusters.
	if cl.Stats.LowSimBounced <= cl.Stats.HighSimBounced {
		t.Fatalf("bounced: low %v <= high %v", cl.Stats.LowSimBounced, cl.Stats.HighSimBounced)
	}
}

// TestDSNGarbledByFaultDegradesSafely: the "outbound-dsn" fault target
// mangles every bounce body at the remote MTA. The engines must shrug —
// unparsable bounces are quarantined like any null-sender message, the
// run completes, and the observed-bounce view simply goes dark instead
// of going wrong.
func TestDSNGarbledByFaultDegradesSafely(t *testing.T) {
	cfg := Quick(42)
	cfg.EmitDSNs = true
	cfg.FaultPlan = &faults.Plan{Rules: []faults.Rule{
		{Target: "outbound-dsn", Kind: faults.KindError},
	}}
	r := NewRun(cfg)
	cl := Clustering(r)
	if cl.TruthBounced == 0 {
		t.Fatal("run produced no bounced challenges")
	}
	if cl.ObservedBounced != 0 {
		t.Fatalf("parsed %d bounce(s) out of 100%% garbled DSNs", cl.ObservedBounced)
	}
	for _, c := range r.Fleet.Companies {
		var n int64
		for _, k := range c.Engine.Metrics().ChallengeBounced {
			n += k
		}
		if n != 0 {
			t.Fatalf("engine %s counted %d challenge bounce(s) from garbage", c.Name, n)
		}
	}
}
