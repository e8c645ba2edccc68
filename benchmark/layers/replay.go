package main

import (
	"fmt"
	"os"
	"time"

	"repro/benchmark/loadgen"
)

// replayShare is the part of the run's seconds each of the two replays
// (traced, untraced) gets: one fifth of a full-size end-to-end load in
// total.
const replayShare = 0.1

// replayOutcome is one in-process replay of a live mix.
type replayOutcome struct {
	txPerS  float64
	flushed int
	flushS  float64
}

// replay builds the crserver wiring in dir, drives the mix through it
// over one loopback connection, then flushes the outbound queue to the
// sink as the server's drain would.
func replay(dir string, spec loadgen.Spec, seed int64, dur time.Duration, t *tracer, problems *[]string) (replayOutcome, error) {
	var out replayOutcome
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	d, err := deploy(dir, t)
	if err != nil {
		return out, err
	}
	defer d.close()
	d.whitelistPairs(spec.Pairs)
	load := loadgen.Load{
		Addr: d.addr, Spec: spec, Seed: seed, Bodies: loadgen.NewBodies(spec, seed),
		Conns: 1, Duration: dur, ReconnectEvery: 100, StreamBase: 1,
	}.Run()
	if load.Failed > 0 {
		*problems = append(*problems, fmt.Sprintf("replay: %d of %d transactions answered wrongly, first: %s", load.Failed, load.Tx, load.FirstErr))
	}
	if len(load.Samples) == 0 {
		return out, fmt.Errorf("replay completed no transaction: %s", load.FirstErr)
	}
	out.txPerS = float64(len(load.Samples)) / load.Elapsed.Seconds()

	start := time.Now()
	var id int32 = -1
	if t != nil {
		id = t.begin(spFlush, true)
	}
	out.flushed, err = d.flushAll()
	if t != nil {
		t.end(id)
	}
	out.flushS = time.Since(start).Seconds()
	if err != nil {
		*problems = append(*problems, "replay: outbound flush: "+err.Error())
	}
	if total, unique, _ := d.sink.Counts(); total != out.flushed || unique != total {
		*problems = append(*problems, fmt.Sprintf("replay: queue reported %d challenges sent, sink got %d for %d messages", out.flushed, total, unique))
	}
	return out, nil
}

// tracedRun replays the workload twice — with the wrappers and without
// — writes the span file and turns the spans into per-layer metrics.
// End-to-end metrics are never taken from here.
func tracedRun(tmp, spansPath, workload string, spec loadgen.Spec, seed int64, seconds float64, m map[string]float64, problems *[]string) error {
	dur := time.Duration(seconds * replayShare * float64(time.Second))
	dir, err := os.MkdirTemp(tmp, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t := newTracer(4 << 20)
	traced, err := replay(dir+"/traced", spec, seed, dur, t, problems)
	if err != nil {
		return err
	}
	plain, err := replay(dir+"/plain", spec, seed, dur, nil, problems)
	if err != nil {
		return err
	}
	if err := t.write(spansPath, workload, seed); err != nil {
		return err
	}
	if t.dropped > 0 {
		*problems = append(*problems, fmt.Sprintf("span buffer full: %d spans dropped", t.dropped))
	}

	st := t.stats()
	// The gateway's two RCPT-stage calls are reported as self time — the
	// adapter plus core.CheckMTAIn, without the resolver, which has its
	// own line. Deliver is reported both ways: whole, and as what is left
	// when filters, challenge sender and inbox sink are taken out —
	// admission control, engine bookkeeping and the stores' journal hooks.
	m["gateway.validate_sender_ns"] = st[spValidateSender].meanSelf()
	m["gateway.validate_rcpt_ns"] = st[spValidateRcpt].meanSelf()
	m["gateway.deliver_ns"] = st[spDeliver].meanTotal()
	m["core.deliver_self_ns"] = st[spDeliver].meanSelf()
	m["dnscache.lookup_ns"] = st[spResolve].meanTotal()
	m["dnscache.rbl_lookup_ns"] = st[spRBLQuery].meanTotal()
	m["filters.reputation_ns"] = st[spFilterReputation].meanTotal()
	m["filters.antivirus_ns"] = st[spFilterAntivirus].meanTotal()
	m["filters.rbl_ns"] = st[spFilterRBL].meanTotal()
	if n := st[spFilterReputation].count; n > 0 {
		// The reputation filter runs first, once per message that enters
		// the chain.
		m["filters.chain_ns_per_gray"] = float64(st[spFilterReputation].total+st[spFilterAntivirus].total+st[spFilterRBL].total) / float64(n)
	}
	m["outbound.enqueue_ns"] = st[spSendChallenge].meanTotal()
	m["wal.journal_emit_ns"] = st[spJournal].meanTotal()
	m["mailbox.sink_ns"] = st[spInbox].meanTotal()
	m["outbound.dial_us"] = st[spDial].meanTotal() / 1e3
	if plain.flushed > 0 && plain.flushS > 0 {
		m["outbound.flush_items_per_s"] = float64(plain.flushed) / plain.flushS
	}
	m["trace.overhead_ratio"] = plain.txPerS/traced.txPerS - 1
	return nil
}
