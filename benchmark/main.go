// Command crbench is the repository's one benchmark: it builds
// cmd/crserver, cmd/reproduce and cmd/logstats, drives the binaries
// through their real surfaces (flags, SMTP and HTTP on loopback, files,
// signals, /proc), checks every output and reports the metrics that
// BENCHMARK.json declares. See README.md in this directory.
//
// The driver's contract (one workload, JSON result on the last line):
//
//	crbench --workload live_paper_mix --seed 1 --seconds 10 --trace 0
//
// A developer's run (every workload, a table per run, spreads with -repeat):
//
//	go run -C benchmark . -seed 1 [-repeat 3] [-trace 1] [-json out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"repro/benchmark/loadgen"
)

// result is one run of one workload.
type result struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	// Attempted counts operations whose outcome was checked: every
	// transaction, every invocation's output, every conservation check.
	// Failed counts those with a wrong outcome.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one, by their BENCHMARK.json names.
	Metrics map[string]float64 `json:"metrics"`
	// Info holds what qualifies the metrics: sample counts, how late
	// the open-loop generator ran, drain time.
	Info     map[string]float64 `json:"info"`
	Timeline []loadgen.Second   `json:"timeline,omitempty"`
}

func newResult(e *env, name string, seed int64, seconds float64, traced bool) *result {
	return &result{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Host: e.host,
		Metrics: map[string]float64{}, Info: map[string]float64{}}
}

// check records one verified output.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

type runner func(e *env, name string, seed int64, seconds float64, traced bool) (*result, error)

func runnerFor(name string) runner {
	if _, ok := liveWorkloads[name]; ok {
		return runLive
	}
	switch name {
	case "fleet_330k":
		return runFleet
	case "logscan_600k":
		return runLogscan
	}
	return nil
}

// runLayers executes the in-process traced run and probes of
// benchmark/layers for the result's workload and merges the per-layer
// metrics it prints. It is a separate program because it alone compiles
// against repro/internal.
func runLayers(e *env, res *result, extra ...string) error {
	spans := filepath.Join(e.root, buildDir, "spans")
	if err := os.MkdirAll(spans, 0o755); err != nil {
		return err
	}
	args := append([]string{
		"-workload", res.Workload, "-seed", strconv.FormatInt(res.Seed, 10),
		"-seconds", strconv.FormatFloat(res.Seconds, 'f', -1, 64),
		"-tmp", e.tmp,
		"-spans", filepath.Join(spans, fmt.Sprintf("%s-seed%d.json", res.Workload, res.Seed)),
	}, extra...)
	cmd := exec.Command(filepath.Join(e.bin, "layers"), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	var got struct {
		Metrics  map[string]float64
		Problems []string
	}
	if err := json.Unmarshal(out, &got); err != nil {
		return fmt.Errorf("layers output: %w", err)
	}
	for k, v := range got.Metrics {
		res.Metrics[k] = v
	}
	res.check(len(got.Problems) == 0, "traced run: %v", got.Problems)
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = report the per-layer metrics from a traced run instead of the end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "run each workload this many times and report median, spread and whether the spread is inside the metric's bound")
		jsonOut  = flag.String("json", "", "also write every run, with host facts and per-second timelines, to this file")
	)
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *repeat, *jsonOut))
}

func run(workload string, seed int64, seconds float64, traced bool, repeat int, jsonOut string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "crbench:", err)
		return 1
	}
	e, err := newEnv()
	if err != nil {
		return fail(err)
	}
	if e.host.NProc < 2 {
		// The load generator and the server would time-share one CPU and
		// every figure would measure the scheduler.
		return fail(fmt.Errorf("host cannot show it: %d CPU, the benchmark needs at least 2", e.host.NProc))
	}
	if seconds <= 0 {
		seconds = float64(e.spec.RunSeconds)
	}
	var names []string
	for _, w := range e.spec.Workloads {
		if workload == "" || workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fail(fmt.Errorf("unknown workload %q", workload))
	}
	if err := e.build(traced); err != nil {
		return fail(err)
	}
	fmt.Printf("crbench: %d CPU, GOMAXPROCS %d, %s, load average %.2f, %d connections over %s\n",
		e.host.NProc, e.host.GOMAXPROCS, e.host.GoVersion, e.host.Load1, e.host.Conns, e.host.Link)

	var all []*result
	status := 0
	for _, name := range names {
		fn := runnerFor(name)
		if fn == nil {
			return fail(fmt.Errorf("BENCHMARK.json names workload %q, which the runner does not implement", name))
		}
		var runs []*result
		for i := 0; i < repeat; i++ {
			res, err := fn(e, name, seed, seconds, traced)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			printRun(e, res)
			runs = append(runs, res)
			if res.Failed > 0 {
				status = 1
			}
		}
		if repeat > 1 && !traced && !printSpread(e, runs) {
			status = 1
		}
		all = append(all, runs...)
	}
	if jsonOut != "" {
		raw, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(raw, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if workload != "" && repeat == 1 {
		// The driver's contract: a run whose outputs were wrong still
		// reports them, as correct=false with the failures counted.
		printContract(e, all[0])
		return 0
	}
	return status
}

// printRun prints every metric of a run by name with its unit.
func printRun(e *env, r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("\n%s  seed %d  %.0fs  %s  (%d checked, %d failed", r.Workload, r.Seed, r.Seconds, kind, r.Attempted, r.Failed)
	for _, k := range sortedKeys(r.Info) {
		fmt.Printf(", %s %.4g", k, r.Info[k])
	}
	fmt.Println(")")
	for _, p := range r.Problems {
		fmt.Println("  FAILED:", p)
	}
	for _, m := range e.spec.metrics(r.Traced) {
		v, ok := r.Metrics[m.Name]
		if r.Traced && (!ok || v == 0) {
			continue // this layer is not on the workload's path
		}
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, v, m.Unit)
	}
	if len(r.Timeline) > 0 {
		fmt.Print("  per second (tx / p99 us / server RSS MB / host steal %):")
		for _, s := range r.Timeline {
			fmt.Printf("  %d/%.0f/%.0f/%.0f", s.Tx, s.P99Us, s.RSSMB, s.Steal*100)
		}
		fmt.Println()
	}
}

// printSpread reports, for each end-to-end metric over the repeated
// runs, the median, the interquartile range as a share of the median,
// and whether that spread is inside the metric's bound.
func printSpread(e *env, runs []*result) bool {
	ok := true
	fmt.Printf("\n%s over %d runs:\n", runs[0].Workload, len(runs))
	for _, m := range e.spec.EndToEnd {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = r.Metrics[m.Name]
		}
		spread := loadgen.Spread(vs)
		verdict := "inside"
		if m.Name != "setup_s" && spread > m.Bound {
			verdict, ok = "OUTSIDE", false
		}
		fmt.Printf("  %-18s median %12.4f %-6s spread %5.1f%%  bound %4.0f%%  %s  runs %.4g\n", m.Name, loadgen.Median(vs), m.Unit, spread*100, m.Bound*100, verdict, vs)
	}
	return ok
}

// printContract prints the driver's result object as the last line.
func printContract(e *env, r *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range e.spec.metrics(r.Traced) {
		out.Metrics[m.Name] = value{r.Metrics[m.Name], m.Unit}
	}
	raw, _ := json.Marshal(out)
	fmt.Println(string(raw))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
