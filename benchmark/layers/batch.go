package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/experiments"
	"repro/internal/logscan"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/report"
	"repro/internal/workload"
)

// probeDays is the simulated period of the fleet probes: the standard
// 47 companies for two weeks, about what one invocation of the
// end-to-end workload simulates.
const probeDays = 14

func mutexWait() float64 {
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		return sample[0].Value.Float64()
	}
	return 0
}

// probeFleet times the simulation's phases separately — building the
// world, running it on one worker and on all, rendering the figures —
// and reads the scheduler's own counters.
func probeFleet(seed int64, m map[string]float64) error {
	std := experiments.Standard(seed)
	build := func(workers int) (*workload.Fleet, float64) {
		cfg := workload.DefaultConfig(seed, std.Companies)
		cfg.Workers = workers
		for i := range cfg.Profiles {
			p := &cfg.Profiles[i]
			p.Users = max(5, int(float64(p.Users)*std.UserScale))
			p.DailyVolume = max(100, int(float64(p.DailyVolume)*std.VolumeScale))
		}
		mail.ResetIDCounter()
		start := time.Now()
		f := workload.NewFleet(cfg)
		return f, time.Since(start).Seconds()
	}
	incoming := func(f *workload.Fleet) float64 {
		var n int64
		for _, c := range f.Companies {
			n += c.Engine.Metrics().MTAIncoming
		}
		return float64(n)
	}

	serial, newFleet := build(1)
	m["workload.newfleet_s"] = newFleet
	start := time.Now()
	serial.Run(probeDays)
	w1 := time.Since(start).Seconds()
	m["workload.run_s_w1"] = w1
	msgs := incoming(serial)
	if msgs == 0 {
		return fmt.Errorf("fleet probe: no message simulated")
	}

	parallel, _ := build(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wait0 := mutexWait()
	start = time.Now()
	parallel.Run(probeDays)
	wN := time.Since(start).Seconds()
	wait1 := mutexWait()
	runtime.ReadMemStats(&after)
	if got := incoming(parallel); got != msgs {
		return fmt.Errorf("fleet probe: %v messages on all workers, %v on one — the run is not worker-count invariant", got, msgs)
	}
	m["workload.run_s_wN"] = wN
	m["workload.speedup_wN"] = w1 / wN
	m["workload.allocs_per_msg"] = float64(after.Mallocs-before.Mallocs) / msgs
	m["workload.mutex_wait_ns_per_msg"] = (wait1 - wait0) * 1e9 / msgs
	ss := parallel.SyncStats()
	m["workload.barriers_fired"] = float64(ss.BarriersFired)
	m["workload.barriers_skipped"] = float64(ss.BarriersSkipped)
	m["workload.steals"] = float64(ss.Steals)

	std.Days = probeDays
	start = time.Now()
	out := experiments.RenderAll(&experiments.Run{Cfg: std, Fleet: parallel})
	m["experiments.render_s"] = time.Since(start).Seconds()
	if len(out) == 0 {
		return fmt.Errorf("fleet probe: RenderAll printed nothing")
	}
	return nil
}

// streamOnly hides every method but Read, so logscan.Scan cannot
// range-split the input and takes the block-producer path a pipe gets.
type streamOnly struct{ io.Reader }

// probeLogscan times the scanner's parts over the decision log the
// end-to-end workload crawls: the line decoder alone, the range-split
// scan on one worker and on all, the streaming scan, the report, and —
// the other direction — encoding the events back into log lines.
func probeLogscan(path string, m map[string]float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte{'\n'})
	if len(lines) == 0 {
		return fmt.Errorf("logscan probe: %s is empty", path)
	}
	n := float64(len(lines))

	dec := logscan.NewDecoder()
	dec.SkipMsgID = true
	var ev maillog.Event
	bad := 0
	var ns float64
	allocs := mallocs(func() {
		ns = perOp(len(lines), func(i int) {
			if err := dec.ParseLineBytes(lines[i], &ev); err != nil {
				bad++
			}
		})
	})
	if bad > 0 {
		return fmt.Errorf("logscan probe: decoder rejected %d of %d lines", bad, len(lines))
	}
	m["logscan.decode_ns_per_event"] = ns
	m["logscan.allocs_per_event"] = allocs / n

	scan := func(workers int) (*maillog.Aggregate, float64, error) {
		start := time.Now()
		agg, err := logscan.ScanReaderAt(bytes.NewReader(data), int64(len(data)), logscan.Options{Workers: workers})
		return agg, time.Since(start).Seconds(), err
	}
	agg, s1, err := scan(1)
	if err != nil {
		return err
	}
	_, sN, err := scan(0)
	if err != nil {
		return err
	}
	m["logscan.events_per_s_w1"] = n / s1
	m["logscan.events_per_s_wN"] = n / sN
	start := time.Now()
	streamed, err := logscan.Scan(streamOnly{bytes.NewReader(data)}, logscan.Options{})
	if err != nil {
		return err
	}
	m["logscan.stream_events_per_s"] = n / time.Since(start).Seconds()
	if streamed.Lines != agg.Lines || agg.Lines != int64(len(lines)) || agg.BadLines != 0 {
		return fmt.Errorf("logscan probe: file scan saw %d lines (%d bad), stream scan %d, file has %d", agg.Lines, agg.BadLines, streamed.Lines, len(lines))
	}

	start = time.Now()
	table := report.LogSummary(agg).Render()
	m["report.render_ms"] = float64(time.Since(start)) / 1e6
	if table == "" {
		return fmt.Errorf("logscan probe: empty report")
	}

	// Encoding: decode a slice of the log into events that own their
	// strings, then time the writer the engines' event sink feeds.
	full := logscan.NewDecoder()
	events := make([]maillog.Event, min(len(lines), 100000))
	for i := range events {
		if err := full.ParseLineBytes(lines[i], &events[i]); err != nil {
			return err
		}
	}
	w := maillog.NewWriter(io.Discard)
	m["maillog.encode_ns_per_event"] = perOp(len(events), func(i int) { w.Write(events[i]) })
	return w.Flush()
}
