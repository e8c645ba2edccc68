// Command reproduce runs the full measurement reproduction: it builds the
// synthetic 47-company fleet, simulates the monitoring period, and prints
// every table and figure from the paper's evaluation (see DESIGN.md §3
// for the experiment index and EXPERIMENTS.md for paper-vs-measured).
//
// Usage:
//
//	reproduce                  # standard run: 47 companies, 30 days
//	reproduce -preset quick    # small fast run (the tests' preset)
//	reproduce -days 60 -seed 7 # custom
//	reproduce -only fig4a      # a single artifact
//	reproduce -preset quick -only chaos -fault-plan plan.json
//	                           # base-vs-faulted delta under a fault plan
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// specials are the -only artifacts that run fleets of their own (or, for
// crashrestart, a single installation) instead of the shared run. The
// paired ablations in experiments.Paired run two fleets each.
var specials = []string{"chaos", "surge", "crashrestart"}

// artifacts lists every name -only accepts: the shared-run artifacts in
// paper order, the specials, then the paired ablations sorted.
func artifacts() []string {
	var names, paired []string
	for _, a := range experiments.Artifacts {
		names = append(names, a.Name)
	}
	for name := range experiments.Paired {
		paired = append(paired, name)
	}
	slices.Sort(paired)
	return slices.Concat(names, specials, paired)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset      = fs.String("preset", "standard", "run size: quick | standard")
		seed        = fs.Int64("seed", 42, "simulation seed (equal seeds reproduce exactly)")
		companies   = fs.Int("companies", 0, "override company count")
		days        = fs.Int("days", 0, "override simulated days")
		only        = fs.String("only", "", "render one artifact: "+strings.Join(artifacts(), "|"))
		crashes     = fs.Int("crashes", 6, "crash points for -only crashrestart")
		sensitivity = fs.Int("sensitivity", 0, "instead of one run, simulate N seeds and print the cross-seed stability table")
		faultPlan   = fs.String("fault-plan", "", "JSON fault plan file applied to every company of the run (default plan for -only chaos; with -only surge its rules follow the sweep's surge latency rule; refused by -sensitivity, -only crashrestart and the paired ablations)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Reject a bad -only before any simulation: the standard preset
	// takes seconds to simulate, and a typo should not cost them.
	artifact := strings.ToLower(*only)
	if artifact != "" && !slices.Contains(artifacts(), artifact) {
		fmt.Fprintf(stderr, "unknown artifact %q\n", *only)
		return 2
	}

	var plan *faults.Plan
	if *faultPlan != "" {
		// Sensitivity, crash-restart and the paired ablations build their
		// own runs and take no fault plan: refuse the flag rather than
		// drop it.
		switch {
		case *sensitivity > 0:
			fmt.Fprintln(stderr, "-fault-plan is not applied by -sensitivity")
			return 2
		case artifact == "crashrestart" || experiments.Paired[artifact] != nil:
			fmt.Fprintf(stderr, "-fault-plan is not applied by -only %s\n", artifact)
			return 2
		}
		var err error
		plan, err = faults.LoadFile(*faultPlan)
		if err != nil {
			fmt.Fprintf(stderr, "fault plan: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "fault plan active:\n%s\n", plan.Describe())
	}

	if *sensitivity > 0 {
		fmt.Fprintf(stderr, "running %d independently-seeded quick fleets...\n", *sensitivity)
		fmt.Fprintln(stdout, experiments.Sensitivity(*seed, *sensitivity).Render())
		return 0
	}

	var cfg experiments.RunConfig
	switch *preset {
	case "quick":
		cfg = experiments.Quick(*seed)
	case "standard":
		cfg = experiments.Standard(*seed)
	default:
		fmt.Fprintf(stderr, "unknown preset %q\n", *preset)
		return 2
	}
	if *companies > 0 {
		cfg.Companies = *companies
	}
	if *days > 0 {
		cfg.Days = *days
	}
	cfg.FaultPlan = plan

	switch artifact {
	case "chaos":
		// The chaos artifact runs the fleet twice (clean and faulted) and
		// diffs.
		fmt.Fprintf(stderr, "chaos run: %d companies, %d simulated days, seed %d (x2)...\n",
			cfg.Companies, cfg.Days, cfg.Seed)
		fmt.Fprintln(stdout, experiments.Chaos(cfg, plan).Render())
		return 0
	case "surge":
		// The surge artifact sweeps burst intensities with admission
		// control on, one fleet run per intensity.
		fmt.Fprintf(stderr, "surge sweep: %d companies, %d simulated days, seed %d (x%d intensities)...\n",
			cfg.Companies, cfg.Days, cfg.Seed, len(experiments.SurgeIntensities))
		fmt.Fprintln(stdout, experiments.Surge(cfg).Render())
		return 0
	case "crashrestart":
		// The crash-restart artifact exercises the WAL durability
		// contract on a single installation rather than the fleet: seeded
		// traffic, seeded crashes with torn tails, byte-identical
		// recovery.
		fmt.Fprintf(stderr, "crash-restart durability: %d seeded crash point(s), seed %d...\n",
			*crashes, cfg.Seed)
		rep, err := experiments.CrashRestart(cfg.Seed, *crashes)
		if err != nil {
			fmt.Fprintf(stderr, "crash-restart: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, rep.Render())
		if !rep.Pass() {
			return 1
		}
		return 0
	}
	if ablation := experiments.Paired[artifact]; ablation != nil {
		// A paired ablation: two identically-seeded fleets, with and
		// without one mechanism.
		fmt.Fprintf(stderr, "%s ablation: %d companies, %d simulated days, seed %d (x2)...\n",
			artifact, cfg.Companies, cfg.Days, cfg.Seed)
		fmt.Fprintln(stdout, ablation(cfg.Seed, cfg.Companies, cfg.Days))
		return 0
	}

	fmt.Fprintf(stderr, "building fleet: %d companies, %d simulated days, seed %d...\n",
		cfg.Companies, cfg.Days, cfg.Seed)
	start := time.Now()
	r := experiments.NewRun(cfg)
	fmt.Fprintf(stderr, "simulation complete in %v\n\n", time.Since(start).Round(time.Millisecond))

	for _, a := range experiments.Artifacts {
		if a.Name == artifact {
			fmt.Fprintln(stdout, a.Render(r))
			return 0
		}
	}
	fmt.Fprintln(stdout, experiments.RenderAll(r))
	return 0
}
