package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/benchmark/loadgen"
)

// liveSpec is a workload against a running crserver: a traffic mix sent
// as an open loop at a fixed rate.
//
// The rates are a quarter to a third of what a closed loop sustains on
// the 2-vCPU reference host (paper mix 18 000 to 25 000 tx/s, flood
// 7 000 to 10 000, large white mail 4 000 to 6 000 — the ranges are the
// host's: its speed drifts by that much within an hour). A loop that
// saturates such a host measures the host; below saturation the server's
// CPU time per transaction repeats to a few per cent from run to run,
// and latency is service time plus the stalls the server imposes, not a
// queue whose length the connection count fixes. The
// rates are also high enough that the cost of waking an idle process
// does not swamp the CPU time per transaction, as it does at a tenth of
// capacity.
type liveSpec struct {
	mix  loadgen.Spec
	rate float64 // tx/s
}

var liveWorkloads = map[string]liveSpec{
	"live_paper_mix":   {mix: loadgen.PaperMix, rate: 6000},
	"live_gray_flood":  {mix: loadgen.GrayFlood, rate: 2500},
	"live_white_large": {mix: loadgen.WhiteLarge, rate: 1500},
}

// reconnectEvery is how many transactions a sending MTA pushes through
// one connection before opening a new one.
const reconnectEvery = 100

// setupRounds is how many times an untraced run sets up from nothing;
// setup_s is the median, the last round's deployment is the one loaded.
const setupRounds = 5

// recoverRounds is how many crash-restart cycles a traced gray flood
// times.
const recoverRounds = 3

// deployment is one set-up: a sink MX and a ready, seeded server.
type deployment struct {
	sink *loadgen.Sink
	srv  *server
}

func (d *deployment) discard() {
	if d.srv != nil {
		d.srv.kill()
	}
	if d.sink != nil {
		d.sink.Close()
	}
}

// setUp starts a sink and a server in dir, waits for the SMTP greeting
// and whitelists the mix's contact pairs through the digest UI.
func setUp(e *env, dir string, mix loadgen.Spec, bodies *loadgen.Bodies, seed int64) (*deployment, time.Duration, error) {
	start := time.Now()
	sink, err := loadgen.StartSink()
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{sink: sink}
	if d.srv, err = newServer(filepath.Join(e.bin, "crserver"), dir, sink.Addr()); err != nil {
		d.discard()
		return nil, 0, err
	}
	if err := d.srv.start(); err != nil {
		d.discard()
		return nil, 0, err
	}
	if err := d.srv.whitelistPairs(mix, bodies, seed); err != nil {
		d.discard()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// sampleHost records, once a second until stop is closed, the server's
// resident set, the CPU time it used and the share of the machine's CPU
// time that went to other guests of the hypervisor.
func sampleHost(pid int, stop <-chan struct{}, wg *sync.WaitGroup, out *[]loadgen.Second) {
	defer wg.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	total0, steal0 := cpuTimes()
	cpu0, _ := procCPU(pid)
	sample := func() {
		var s loadgen.Second
		s.RSSMB, _ = procRSS(pid)
		total1, steal1 := cpuTimes()
		if total1 > total0 {
			s.Steal = (steal1 - steal0) / (total1 - total0)
		}
		cpu1, _ := procCPU(pid)
		s.CPUMs = float64(cpu1-cpu0) / float64(time.Millisecond)
		total0, steal0, cpu0 = total1, steal1, cpu1
		*out = append(*out, s)
	}
	for {
		select {
		case <-stop:
			sample() // the last, possibly partial, second
			return
		case <-tick.C:
			sample()
		}
	}
}

func runLive(e *env, name string, seed int64, seconds float64, traced bool) (*result, error) {
	spec := liveWorkloads[name]
	res := newResult(e, name, seed, seconds, traced)
	bodies := loadgen.NewBodies(spec.mix, seed)
	runDir, err := os.MkdirTemp(e.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	keep := true // the server log is evidence until the run has passed
	defer func() {
		if keep {
			fmt.Fprintf(os.Stderr, "crbench: run directory kept for inspection: %s\n", runDir)
		} else {
			os.RemoveAll(runDir)
		}
	}()

	rounds := e.setupRepeats(setupRounds, traced)
	var dep *deployment
	var setups []float64
	for i := 0; i < rounds; i++ {
		if dep != nil {
			dep.discard()
		}
		var took time.Duration
		if dep, took, err = setUp(e, filepath.Join(runDir, fmt.Sprintf("setup%d", i)), spec.mix, bodies, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { dep.discard() }()
	srv := dep.srv

	loadSeconds := seconds
	if traced {
		// A traced run also has to fit the in-process replay and the
		// probes; the counts it takes here are ratios per transaction.
		loadSeconds *= 0.4
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	var host []loadgen.Second
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go sampleHost(srv.pid(), stop, &wg, &host)
	out := loadgen.Load{
		Addr: srv.smtpAddr, Spec: spec.mix, Seed: seed, Bodies: bodies,
		Conns: e.host.Conns, Duration: time.Duration(loadSeconds * float64(time.Second)),
		Rate: spec.rate, ReconnectEvery: reconnectEvery, StreamBase: 1,
	}.Run()
	close(stop)
	wg.Wait()
	self1 := selfCPU()
	_, peak := procRSS(srv.pid())

	// Let the group-commit window close, then read what the server says
	// about itself.
	time.Sleep(300 * time.Millisecond)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(k string) float64 { return after[k] - before[k] }

	done := len(out.Samples)
	res.Attempted += out.Tx
	res.Failed += out.Failed
	if out.FirstErr != "" {
		res.Problems = append(res.Problems, "first wrong transaction: "+out.FirstErr)
	}
	if done == 0 {
		return nil, fmt.Errorf("no transaction completed: %s", out.FirstErr)
	}
	acked := out.Acked[loadgen.White] + out.Acked[loadgen.GrayClean] + out.Acked[loadgen.GrayVirus]
	res.check(int(delta("incoming")) == acked, "/metrics incoming rose by %v, load generator saw %d messages accepted", delta("incoming"), acked)
	res.check(after["incoming"] == after["mta_dropped"]+after["spool_white"]+after["spool_black"]+after["spool_gray"],
		"/metrics conservation: incoming %v != mta_dropped %v + white %v + black %v + gray %v",
		after["incoming"], after["mta_dropped"], after["spool_white"], after["spool_black"], after["spool_gray"])
	res.check(int(delta("spool_white")) == out.Acked[loadgen.White], "white spool rose by %v, want %d", delta("spool_white"), out.Acked[loadgen.White])
	res.check(after["wal_durable_lsn"] == after["wal_last_lsn"], "WAL not durable when idle: durable LSN %v, last LSN %v", after["wal_durable_lsn"], after["wal_last_lsn"])
	res.check(after["overload_shed_total"] == 0, "admission control shed %v messages", after["overload_shed_total"])
	if name == "live_gray_flood" {
		res.check(int(delta("challenges_sent")) == out.Acked[loadgen.GrayClean], "challenges_sent rose by %v, want one per accepted gray message: %d", delta("challenges_sent"), out.Acked[loadgen.GrayClean])
	}

	var recovers []float64
	if traced && name == "live_gray_flood" {
		// The WAL read side of what the flood wrote: crash, boot to the
		// first 220, repeatedly over the same log.
		for i := 0; i < recoverRounds; i++ {
			srv.kill()
			t0 := time.Now()
			if err := srv.start(); err != nil {
				return nil, fmt.Errorf("restart after crash: %w", err)
			}
			recovers = append(recovers, time.Since(t0).Seconds())
		}
	}

	drain, err := srv.term(150 * time.Second)
	res.check(err == nil, "drain: %v", err)
	total, unique, unnamed := dep.sink.Counts()
	res.check(unique == int(after["challenges_sent"]) && total == unique && unnamed == 0,
		"sink MX received %d challenges for %d distinct messages (%d without an ID), server sent %v", total, unique, unnamed, after["challenges_sent"])

	tx := float64(done)
	res.Info["samples"] = tx
	res.Info["late_ratio"] = float64(out.Late) / float64(out.Tx)
	res.Info["start_lag_us"] = float64(out.Lag.Microseconds()) / float64(out.Tx)
	res.Info["drain_s"] = drain.Seconds()
	res.Info["challenges_at_sink"] = float64(unique)
	res.Timeline = loadgen.Timeline(out.Samples, time.Duration(loadSeconds*float64(time.Second)), host)
	var serverCPU float64 // seconds, over the whole load
	steal := make([]float64, len(res.Timeline))
	for i, s := range res.Timeline {
		serverCPU += s.CPUMs / 1e3
		steal[i] = s.Steal
	}
	// CPU time the hypervisor gave to other guests during the load: the
	// part of a slow run that is the host's doing, not the program's.
	res.Info["host_steal_ratio"] = loadgen.Mean(steal)
	if !traced {
		// Each metric is the median of its per-second values over the
		// seconds the host left alone (quiet.go); CPU per transaction is
		// pooled over those seconds, which evens out the 10 ms grain of
		// /proc CPU accounting.
		q := quietest(steal)
		over := func(f func(loadgen.Second) float64) float64 {
			vs := make([]float64, len(q))
			for i, j := range q {
				vs[i] = f(res.Timeline[j])
			}
			return loadgen.Median(vs)
		}
		var cpuMs, quietTx float64
		for _, i := range q {
			cpuMs += res.Timeline[i].CPUMs
			quietTx += float64(res.Timeline[i].Tx)
		}
		if quietTx == 0 {
			return nil, fmt.Errorf("no transaction completed in the %d measured seconds", len(q))
		}
		res.Info["quiet_seconds"] = float64(len(q))
		res.Metrics["setup_s"] = loadgen.Median(setups)
		// Delivered rate: the schedule's, unless the server falls behind.
		res.Metrics["ops_per_s"] = tx / out.Elapsed.Seconds()
		res.Metrics["latency_p50_ms"] = over(func(s loadgen.Second) float64 { return s.P50Us / 1e3 })
		// The tail is reported with every run but bounds no change: over
		// ten runs the p90 spreads by up to 28 % and the p99 by 35 % on
		// the reference host, which cannot tell a regression from noise.
		res.Info["latency_p90_ms"] = over(func(s loadgen.Second) float64 { return s.P90Us / 1e3 })
		res.Info["latency_p99_ms"] = over(func(s loadgen.Second) float64 { return s.P99Us / 1e3 })
		res.Metrics["cpu_us_per_op"] = cpuMs * 1e3 / quietTx
		res.Metrics["rss_kb_per_op"] = peak * 1024 / tx
	} else {
		liveCounts(res, before, after, tx)
		res.Metrics["loadgen.late_ratio"] = res.Info["late_ratio"]
		res.Metrics["loadgen.cpu_share"] = (self1 - self0).Seconds() / ((self1 - self0).Seconds() + serverCPU)
		if len(recovers) > 0 {
			res.Metrics["store.recover_s"] = loadgen.Median(recovers)
		}
		if drain > 0 {
			res.Metrics["outbound.drain_per_s"] = float64(total) / drain.Seconds()
		}
		if err := runLayers(e, res); err != nil {
			return nil, err
		}
	}
	keep = res.Failed > 0
	return res, nil
}

// liveCounts turns the /metrics deltas of the load phase into the
// per-layer counts and ratios: work done per transaction where the
// work happens.
func liveCounts(res *result, before, after map[string]float64, tx float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := res.Metrics
	m["wal.appends_per_tx"] = d("wal_appends_total") / tx
	m["wal.fsyncs_per_tx"] = d("wal_fsyncs_total") / tx
	m["wal.bytes_per_tx"] = d("wal_bytes_total") / tx
	m["wal.records_per_fsync"] = ratio(d("wal_appends_total"), d("wal_fsyncs_total"))
	m["dnscache.hit_ratio"] = ratio(d("dns_cache_hits"), d("dns_cache_lookups"))
	m["dnscache.negative_hit_ratio"] = ratio(d("dns_cache_negative_hits"), d("dns_cache_lookups"))
	m["dnscache.rbl_hit_ratio"] = ratio(d("rbl_cache_hits"), d("rbl_cache_lookups"))
	m["filters.drop_ratio"] = ratio(d("filter_dropped"), d("spool_gray"))
	m["overload.shed_total"] = after["overload_shed_total"]
	m["overload.limit_final"] = after["admission_limit"]
	m["spool.depth_after_load"] = after["outbound_spool_depth"]
	m["outbound.deferred_after_load"] = after["outbound_deferred"]
	m["core.mutex_wait_us_per_tx"] = d("mutex_wait_seconds") * 1e6 / tx
}
