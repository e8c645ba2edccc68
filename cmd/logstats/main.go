// Command logstats is the log-crawler half of the paper's methodology:
// it parses a CR decision log (as emitted by the engines' event sink)
// and prints the aggregated statistics — the role the authors' Python
// scripts + Postgres played over the MTAs' daily logs. The scan itself
// runs on the parallel zero-allocation logscan engine, so a file the
// size of the paper's 90M-event corpus splits across every core.
//
//	logstats -f cr.log           # parallel scan of a log file
//	logstats < cr.log            # stdin: range-split too when it is a file
//	zcat cr.log.gz | logstats    # a pipe is streamed
//	logstats -f <(zcat cr.log.gz)  # -f on a FIFO streams it too
//	logstats -demo               # simulate a small fleet, log it, parse it
//	logstats -per-company -f cr.log
//	logstats -progress -f cr.log # events/sec heartbeat on stderr
//	logstats -wal wal-0000000000000001.seg   # pretty-print a WAL segment
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/logscan"
	"repro/internal/maillog"
	"repro/internal/report"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	var (
		demo       = flag.Bool("demo", false, "simulate a small fleet and analyze its own log")
		perCompany = flag.Bool("per-company", false, "print one row per company")
		seed       = flag.Int64("seed", 1, "demo fleet seed")
		walSeg     = flag.String("wal", "", "pretty-print a write-ahead-log segment file and exit")
		file       = flag.String("f", "", "scan this log file instead of stdin (a regular file is range-split across workers)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel scan workers")
		progress   = flag.Bool("progress", false, "print scan progress to stderr every 5s")
	)
	flag.Parse()

	if *walSeg != "" {
		// Offline WAL inspection: record-by-record dump of one segment,
		// reporting a torn tail instead of erroring — the same tolerance
		// the boot-time replay has.
		if err := wal.Dump(os.Stdout, *walSeg); err != nil {
			log.Fatalf("wal dump: %v", err)
		}
		return
	}

	var input io.Reader = os.Stdin
	if *demo {
		var sb strings.Builder
		w := maillog.NewWriter(&sb)
		cfg := workload.DefaultConfig(*seed, 4)
		for i := range cfg.Profiles {
			cfg.Profiles[i].Users = 15
			cfg.Profiles[i].DailyVolume = 400
		}
		cfg.LogSink = w.Write
		fleet := workload.NewFleet(cfg)
		fleet.Run(2)
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "demo fleet logged %d events\n\n", w.Count())
		input = strings.NewReader(sb.String())
	}

	opts := logscan.Options{Workers: *workers}
	var stopProgress func()
	if *progress {
		var c logscan.Counters
		opts.Counter = &c
		stopProgress = startProgress(&c)
	}

	var agg *maillog.Aggregate
	var err error
	if *file != "" {
		agg, err = logscan.ScanFile(*file, opts)
	} else {
		agg, err = logscan.Scan(input, opts)
	}
	if stopProgress != nil {
		stopProgress()
	}
	if err != nil {
		if agg != nil && agg.Lines > 0 {
			// Print what was scanned before the failure, then exit
			// non-zero so pipelines notice the truncated crawl.
			fmt.Println(report.LogSummary(agg).Render())
			fmt.Fprintln(os.Stderr, "warning: statistics above cover only the log prefix before the error")
		}
		log.Fatalf("scan: %v", err)
	}
	if agg.Lines == 0 {
		if *file != "" {
			fmt.Fprintf(os.Stderr, "no log lines in %s\n", *file)
		} else {
			fmt.Fprintln(os.Stderr, "no log lines on stdin (use -demo for a synthetic run)")
		}
		os.Exit(1)
	}

	fmt.Println(report.LogSummary(agg).Render())
	if *perCompany {
		fmt.Println(report.LogPerCompany(agg).Render())
	}
}

// startProgress prints an events/sec heartbeat from the live scan
// counters every 5s until the returned stop function is called.
func startProgress(c *logscan.Counters) func() {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		start := time.Now()
		var lastEvents int64
		lastAt := start
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				events := c.Events.Load()
				rate := float64(events-lastEvents) / now.Sub(lastAt).Seconds()
				fmt.Fprintf(os.Stderr, "progress: %d events (%d bad lines), %.0f events/sec, %s elapsed\n",
					events, c.BadLines.Load(), rate, now.Sub(start).Round(time.Second))
				lastEvents, lastAt = events, now
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
