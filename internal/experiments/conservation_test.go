package experiments

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
)

// Every fleet the package's tests build — the quick seeds, chaos, surge,
// EmitDSNs and both fleets of every paired ablation — passes through
// checkConservation; TestMain fails the package if any broke it.
var (
	conservationMu     sync.Mutex
	conservationErrors []string
)

func TestMain(m *testing.M) {
	runDone = func(r *Run) {
		errs := checkConservation(r)
		conservationMu.Lock()
		conservationErrors = append(conservationErrors, errs...)
		conservationMu.Unlock()
	}
	code := m.Run()
	for _, e := range conservationErrors {
		fmt.Fprintln(os.Stderr, "Fig. 1 conservation:", e)
	}
	if code == 0 && len(conservationErrors) > 0 {
		code = 1
	}
	os.Exit(code)
}

// checkConservation holds each engine of r to Fig. 1's two counter
// equalities: every message the MTA-IN sees is dropped there or lands in
// exactly one spool, and every gray-spool message meets exactly one gray
// fate.
func checkConservation(r *Run) []string {
	var errs []string
	run := fmt.Sprintf("seed %d, %d companies, %d days", r.Cfg.Seed, r.Cfg.Companies, r.Cfg.Days)
	for _, c := range r.Fleet.Companies {
		m := c.Engine.Metrics()
		if in, out := m.MTAIncoming, sum(m.MTADropped)+m.SpoolWhite+m.SpoolBlack+m.SpoolGray; in != out {
			errs = append(errs, fmt.Sprintf("%s, %s: MTAIncoming %d != MTA drops + spools %d", run, c.Name, in, out))
		}
		if gray, fates := m.SpoolGray, grayFates(m); gray != fates {
			errs = append(errs, fmt.Sprintf("%s, %s: SpoolGray %d != gray fates %d", run, c.Name, gray, fates))
		}
	}
	return errs
}

func grayFates(m core.Metrics) int64 {
	return sum(m.FilterDropped) + m.ChallengesSent + m.QuarantineOnly +
		m.ChallengeSuppressed + m.ChallengeRateLimited + m.ChallengeLoopSuppressed
}

func sum[K comparable](counts map[K]int64) int64 {
	var n int64
	for _, v := range counts {
		n += v
	}
	return n
}
