package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/loadgen"
)

// Sizes of the two batch workloads. Both names carry their size: when
// the size changes the workload is a different one and gets a new name.
const (
	// fleetEmails is how many emails one reproduce invocation simulates:
	// the paper's 47 companies (standard preset) for about two weeks and
	// about a second, so a run sees around ten invocations. Fleets of
	// different seeds differ in daily volume by a third, so the number of
	// days is chosen per seed to come closest to this many emails.
	fleetEmails = 330000
	// logEvents is the size of the decision log genlog writes: about two
	// simulated weeks of the same fleet, 52 MB, which stays in the page
	// cache.
	logEvents = 600000
)

// batchSetupRounds is how many times a batch workload sets up; its
// set-up takes a second, so fewer rounds than a live workload's.
const batchSetupRounds = 3

// invocation is one finished run of a program under test.
type invocation struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
}

// invoke runs the program to completion. A non-zero exit is an error.
func invoke(bin string, stdin *os.File, args ...string) (invocation, error) {
	cmd := exec.Command(bin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if stdin != nil {
		cmd.Stdin = stdin
	}
	start := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(start), stdout: out.Bytes()}
	if err != nil {
		return inv, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(errOut.String()))
	}
	inv.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return inv, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// batchMetrics fills the end-to-end metrics of a workload made of
// repeated invocations, each processing ops operations in processes
// that handle opsPerProcess each (the peak resident set is a process's).
//
// A deterministic program given the same input is only ever slowed by
// its host, never sped up: the same logstats command took between 166
// and 344 ms within one minute on the reference host, and the medians
// of successive batches of forty ranged from 182 to 272 ms while their
// minima stayed within 166 to 179. The metrics are therefore taken over
// the fastest third of the invocations (at least three). The latency of
// a batch workload is the time to a finished result, the median over
// those invocations; the slowest invocation of all is reported beside it.
func batchMetrics(res *result, setups []float64, invs []invocation, ops, opsPerProcess float64) {
	sort.Slice(invs, func(a, b int) bool { return invs[a].wall < invs[b].wall })
	var rss float64
	for _, inv := range invs {
		rss = math.Max(rss, inv.rssMB)
	}
	fast := invs[:min(max(len(invs)/3, 3), len(invs))]
	lat := make([]float64, len(fast))
	var cpu float64
	for i, inv := range fast {
		lat[i] = inv.wall.Seconds() * 1e3
		cpu += inv.cpu.Seconds()
	}
	res.Info["samples"] = float64(len(invs))
	res.Info["fastest_samples"] = float64(len(fast))
	res.Info["slowest_ms"] = invs[len(invs)-1].wall.Seconds() * 1e3
	res.Metrics["setup_s"] = loadgen.Median(setups)
	res.Metrics["ops_per_s"] = ops / (loadgen.Median(lat) / 1e3)
	res.Metrics["latency_p50_ms"] = loadgen.Percentile(lat, 50)
	res.Metrics["cpu_us_per_op"] = cpu * 1e6 / (ops * float64(len(fast)))
	res.Metrics["rss_kb_per_op"] = rss * 1024 / opsPerProcess
}

// The artifacts reproduce must print, by the start of their header line.
var artifactHeaders = []string{
	"Figure 1 ", "Figure 3 ", "Table 1 ", "Figure 4(a) ", "Figure 4(b) ", "Figure 5 ", "Figure 6 ",
	"Figure 7 ", "Figure 8 ", "Figure 9 ", "Figure 10 ", "Figure 11 ", "Figure 12 ",
}

var (
	fig1Row       = regexp.MustCompile(`(?m)^(dropped at MTA|white spool|black spool|gray spool)\s*:\s*([0-9.]+)$`)
	totalIncoming = regexp.MustCompile(`(?m)^Total incoming emails\s+([0-9]+)\s*$`)
)

// checkReproduce verifies one reproduce output and returns the number
// of emails the fleet received.
func checkReproduce(res *result, out []byte) float64 {
	text := string(out)
	for _, h := range artifactHeaders {
		res.check(strings.Contains(text, "\n"+h) || strings.HasPrefix(text, h), "reproduce printed no %q artifact", strings.TrimSpace(h))
	}
	sum := 0.0
	rows := fig1Row.FindAllStringSubmatch(text, -1)
	for _, r := range rows {
		v, _ := strconv.ParseFloat(r[2], 64)
		sum += v
	}
	res.check(len(rows) == 4 && math.Abs(sum-1000) <= 0.5, "Figure 1 fates sum to %.1f per 1000 over %d rows, want 1000 ± 0.5 over 4", sum, len(rows))
	m := totalIncoming.FindStringSubmatch(text)
	if m == nil {
		res.check(false, "Table 1 has no \"Total incoming emails\" row")
		return 0
	}
	n, _ := strconv.ParseFloat(m[1], 64)
	res.check(n > 0, "Table 1 reports %v incoming emails", n)
	return n
}

// runFleet is the researcher's path: the reproduce binary simulating
// the 47-company fleet and rendering every figure, over and over with
// the same seed. No socket, WAL or spool is touched.
func runFleet(e *env, name string, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult(e, name, seed, seconds, traced)
	if traced {
		return res, runLayers(e, res)
	}
	bin := filepath.Join(e.bin, "reproduce")
	seedArg := strconv.FormatInt(seed, 10)
	var setups []float64
	var perDay float64
	for i := 0; i < e.setupRepeats(batchSetupRounds, false); i++ {
		// Set-up is what precedes the first measured invocation: one
		// simulated day, which pages the binary in and shows how many
		// emails a day this seed's fleet receives.
		inv, err := invoke(bin, nil, "-preset", "standard", "-days", "1", "-seed", seedArg)
		if err != nil {
			return nil, err
		}
		m := totalIncoming.FindSubmatch(inv.stdout)
		if m == nil {
			return nil, fmt.Errorf("reproduce -days 1 printed no \"Total incoming emails\" row")
		}
		if perDay, _ = strconv.ParseFloat(string(m[1]), 64); perDay <= 0 {
			return nil, fmt.Errorf("reproduce -days 1 reported %v incoming emails", perDay)
		}
		setups = append(setups, inv.wall.Seconds())
	}
	days := strconv.Itoa(max(1, int(math.Round(fleetEmails/perDay))))
	res.Info["days"], _ = strconv.ParseFloat(days, 64)
	var invs []invocation
	var emails float64
	var first [sha256.Size]byte
	for start := time.Now(); time.Since(start).Seconds() < seconds; {
		inv, err := invoke(bin, nil, "-preset", "standard", "-days", days, "-seed", seedArg)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(inv.stdout)
		if len(invs) == 0 {
			first = sum
			emails = checkReproduce(res, inv.stdout)
		} else {
			res.check(sum == first, "invocation %d printed different output for the same seed", len(invs)+1)
		}
		invs = append(invs, inv)
	}
	if emails == 0 {
		return nil, fmt.Errorf("reproduce reported no incoming emails")
	}
	res.Info["emails"] = emails
	batchMetrics(res, setups, invs, emails, emails)
	return res, nil
}

var logstatsRow = regexp.MustCompile(`(?m)^(Log lines|Unparsable lines)\s+([0-9]+)\s*$`)

// runLogscan is the measurement pipeline alone: genlog writes a
// decision log in set-up, then logstats crawls it — two invocations
// reading the file (range-split across workers) for every one reading
// it as a stream on standard input, the two ways the scanner is used.
// An operation is one event scanned.
func runLogscan(e *env, name string, seed int64, seconds float64, traced bool) (*result, error) {
	res := newResult(e, name, seed, seconds, traced)
	runDir, err := os.MkdirTemp(e.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	logPath := filepath.Join(runDir, "decisions.log")
	rounds := e.setupRepeats(batchSetupRounds, traced)
	var setups []float64
	var written struct{ Events, Bytes float64 }
	for i := 0; i < rounds; i++ {
		inv, err := invoke(filepath.Join(e.bin, "genlog"), nil, "-seed", strconv.FormatInt(seed, 10), "-events", strconv.Itoa(logEvents), "-o", logPath)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(inv.stdout, &written); err != nil || written.Events == 0 {
			return nil, fmt.Errorf("genlog reported %q: %v", inv.stdout, err)
		}
		setups = append(setups, inv.wall.Seconds())
	}
	res.Info["log_events"] = written.Events
	res.Info["log_mb"] = written.Bytes / (1 << 20)
	if traced {
		return res, runLayers(e, res, "-log", logPath)
	}

	bin := filepath.Join(e.bin, "logstats")
	var first []byte
	// scan runs logstats once, over the file or over standard input, and
	// checks what it printed.
	scan := func(stdin bool) (invocation, error) {
		var inv invocation
		var err error
		if stdin {
			var f *os.File
			if f, err = os.Open(logPath); err != nil {
				return inv, err
			}
			inv, err = invoke(bin, f)
			f.Close()
		} else {
			inv, err = invoke(bin, nil, "-f", logPath)
		}
		if err != nil {
			return inv, err
		}
		if first == nil {
			first = inv.stdout
			rows := map[string]float64{}
			for _, m := range logstatsRow.FindAllSubmatch(inv.stdout, -1) {
				rows[string(m[1])], _ = strconv.ParseFloat(string(m[2]), 64)
			}
			res.check(rows["Log lines"] == written.Events, "logstats counted %v log lines, genlog wrote %v events", rows["Log lines"], written.Events)
			res.check(rows["Unparsable lines"] == 0, "logstats found %v unparsable lines", rows["Unparsable lines"])
		} else {
			res.check(bytes.Equal(inv.stdout, first), "a scan (stdin: %v) printed different statistics for the same log", stdin)
		}
		return inv, nil
	}
	// One observation is a cycle of three scans — file, file, stream — so
	// that whichever observations the metrics are taken over, both ways of
	// using the scanner are in them in the same proportion.
	var cycles []invocation
	for start := time.Now(); time.Since(start).Seconds() < seconds; {
		var cycle invocation
		for _, stdin := range []bool{false, false, true} {
			inv, err := scan(stdin)
			if err != nil {
				return nil, err
			}
			cycle.wall += inv.wall
			cycle.cpu += inv.cpu
			cycle.rssMB = math.Max(cycle.rssMB, inv.rssMB)
		}
		cycles = append(cycles, cycle)
	}
	batchMetrics(res, setups, cycles, 3*written.Events, written.Events)
	return res, nil
}
