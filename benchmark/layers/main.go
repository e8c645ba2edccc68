// Command layers produces crbench's per-layer numbers. It is the one
// part of the benchmark, with genlog, that compiles against
// repro/internal: it builds cmd/crserver's wiring in-process, wraps the
// seams the code already exposes (see trace.go), replays a live
// workload through it with and without the wrappers, and times each
// layer's public entry points on their own (probes.go, batch.go).
//
// It prints one JSON object, {"Metrics": {...}, "Problems": [...]};
// crbench merges it with the counts it scraped from the real binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/benchmark/loadgen"
)

var mixes = map[string]loadgen.Spec{
	"live_paper_mix":   loadgen.PaperMix,
	"live_gray_flood":  loadgen.GrayFlood,
	"live_white_large": loadgen.WhiteLarge,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload whose layers to measure")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "the run's measured seconds; the replays take a fifth of it")
		tmp      = flag.String("tmp", os.TempDir(), "scratch directory")
		spans    = flag.String("spans", "", "where to write the span file")
		logPath  = flag.String("log", "", "decision log for the logscan probes")
	)
	flag.Parse()
	m := map[string]float64{}
	var problems []string
	if err := run(*workload, *seed, *seconds, *tmp, *spans, *logPath, m, &problems); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"Metrics": m, "Problems": problems}); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, tmp, spans, logPath string, m map[string]float64, problems *[]string) error {
	switch workload {
	case "fleet_330k":
		return probeFleet(seed, m)
	case "logscan_600k":
		return probeLogscan(logPath, m)
	}
	spec, ok := mixes[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := tracedRun(tmp, spans, workload, spec, seed, seconds, m, problems); err != nil {
		return err
	}
	if err := probeSMTP(spec, seed, m); err != nil {
		return err
	}
	if err := probeCore(tmp, spec, seed, m); err != nil {
		return err
	}
	probeOverload(m)
	return probeStores(tmp, m)
}
