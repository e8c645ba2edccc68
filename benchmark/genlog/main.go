// Command genlog writes the decision log the logscan workload crawls:
// the standard 47-company fleet simulated, with the engines' event sink
// attached, for as many whole days as it takes to log -events events —
// exactly the log a deployment of that size would leave behind. Fleets
// of different seeds differ in volume by a third; stopping at an event
// count keeps the log, and so the work of crawling it, the same size
// for every seed. It prints the number of events it wrote as one JSON
// line, which the benchmark compares with what logstats finds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "fleet seed")
	events := flag.Int64("events", 600000, "stop after the first simulated day that brings the log to this many events")
	out := flag.String("o", "", "output file")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "genlog: -o FILE is required")
		os.Exit(2)
	}
	if err := run(*seed, *events, *out); err != nil {
		fmt.Fprintln(os.Stderr, "genlog:", err)
		os.Exit(1)
	}
}

func run(seed, events int64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	w := maillog.NewWriter(bw)

	std := experiments.Standard(seed)
	cfg := workload.DefaultConfig(seed, std.Companies)
	for i := range cfg.Profiles {
		p := &cfg.Profiles[i]
		p.Users = max(5, int(float64(p.Users)*std.UserScale))
		p.DailyVolume = max(100, int(float64(p.DailyVolume)*std.VolumeScale))
	}
	cfg.LogSink = w.Write
	mail.ResetIDCounter()
	fleet := workload.NewFleet(cfg)
	days := 0
	for w.Count() < events {
		fleet.Run(1)
		if days++; w.Count() == 0 {
			return fmt.Errorf("a simulated day logged no event")
		}
	}

	if err := w.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]int64{"events": w.Count(), "bytes": st.Size(), "days": int64(days)})
}
