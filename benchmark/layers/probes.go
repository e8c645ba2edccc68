package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/benchmark/loadgen"
	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/overload"
	"repro/internal/reputation"
	"repro/internal/smtp"
	"repro/internal/spool"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// A probe times one layer's public function standing alone, fed from
// the workload's own transaction stream where the layer sees the
// stream. It says what the layer costs when nothing else contends; the
// spans say what it costs inside a transaction.

// perOp runs fn n times and returns the mean nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// acceptAll is the no-op backend of the SMTP probe: every command is
// accepted and every message discarded, so what is timed is the
// protocol engine and the loopback, not policy.
type acceptAll struct{}

func (acceptAll) ValidateSender(mail.Address) *smtp.Reply    { return nil }
func (acceptAll) ValidateRcpt(_, _ mail.Address) *smtp.Reply { return nil }
func (acceptAll) Deliver(*mail.Message) *smtp.Reply          { return nil }

// probeSMTP times smtp.Server alone: session cost and allocations per
// transaction of the workload's mix (client side included — both ends
// are in this process), connection set-up, and the marginal cost of a
// kilobyte of DATA.
func probeSMTP(spec loadgen.Spec, seed int64, m map[string]float64) error {
	srv := smtp.NewServer(smtp.Config{Hostname: "mta." + loadgen.Domain}, acceptAll{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns net.ErrClosed after Close
		close(done)
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	addr := ln.Addr().String()

	var out loadgen.Outcome
	allocs := mallocs(func() {
		out = loadgen.Load{Addr: addr, Spec: spec, Seed: seed, Bodies: loadgen.NewBodies(spec, seed),
			Conns: 1, Duration: 400 * time.Millisecond, ReconnectEvery: 100}.Run()
	})
	if out.Tx == 0 {
		return fmt.Errorf("smtp probe completed no transaction: %s", out.FirstErr)
	}
	m["smtp.session_ns_per_tx"] = float64(out.Elapsed) / float64(out.Tx)
	m["smtp.allocs_per_tx"] = allocs / float64(out.Tx)

	var setups []float64
	for i := 0; i < 50; i++ {
		c := &loadgen.Client{Addr: addr}
		start := time.Now()
		if err := c.Connect(); err != nil {
			return err
		}
		setups = append(setups, float64(time.Since(start))/1e3)
		c.Close()
	}
	m["smtp.conn_setup_us"] = loadgen.Median(setups)

	// Same transaction, 1 KB and 16 KB of body: the difference is DATA.
	sized := func(kb int) (float64, error) {
		s := loadgen.Spec{Weights: [loadgen.NumClasses]int{loadgen.White: 1000}, MinBody: kb << 10, MaxBody: kb << 10, Pairs: 1}
		mix := loadgen.NewMix(s, loadgen.NewBodies(s, seed), seed, 0)
		c := &loadgen.Client{Addr: addr}
		defer c.Close()
		var total time.Duration
		const n = 1500
		for i := 0; i < n; i++ {
			_, lat, err := c.Do(mix.Next(), time.Time{})
			if err != nil {
				return 0, err
			}
			total += lat
		}
		return float64(total) / n, nil
	}
	small, err := sized(1)
	if err != nil {
		return err
	}
	large, err := sized(16)
	if err != nil {
		return err
	}
	m["smtp.data_ns_per_kb"] = (large - small) / 15
	return nil
}

// streamMessages turns n transactions of the workload's stream into the
// messages the engine would be handed for them.
func streamMessages(spec loadgen.Spec, seed int64, n int) (all, accepted []*mail.Message) {
	mix := loadgen.NewMix(spec, loadgen.NewBodies(spec, seed), seed, 1)
	for i := 0; i < n; i++ {
		tx := mix.Next()
		from, err1 := mail.ParseAddress(string(tx.From))
		rcpt, err2 := mail.ParseAddress(string(tx.Rcpt))
		if err1 != nil || err2 != nil {
			continue
		}
		msg := &mail.Message{
			ID: "probe-" + strconv.Itoa(i), EnvelopeFrom: from, HeaderFrom: from, Rcpt: rcpt,
			Subject: "benchmark message", Body: string(tx.Body), Size: len(tx.Body),
			ClientIP: "127.0.0.1", HeloDomain: "loadgen.example.com", Received: time.Now(),
		}
		all = append(all, msg)
		if tx.Class.Want() == 250 {
			accepted = append(accepted, msg)
		}
	}
	return all, accepted
}

// probeCore times the engine called directly, as the fleet simulation
// calls it: the MTA-IN checks over the whole stream, and Receive over
// the part of the stream that reaches it on the live path.
func probeCore(tmp string, spec loadgen.Spec, seed int64, m map[string]float64) error {
	dir, err := os.MkdirTemp(tmp, "core-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := deploy(dir, nil)
	if err != nil {
		return err
	}
	defer d.close()
	d.whitelistPairs(spec.Pairs)
	all, accepted := streamMessages(spec, seed, 20000)
	m["core.check_mtain_ns"] = perOp(len(all), func(i int) { d.eng.CheckMTAIn(all[i]) })
	if len(accepted) > 0 {
		var ns float64
		allocs := mallocs(func() {
			ns = perOp(len(accepted), func(i int) { d.eng.Receive(accepted[i]) })
		})
		m["core.receive_ns"] = ns
		m["core.allocs_per_receive"] = allocs / float64(len(accepted))
	}
	const n = 20000
	rcpt := mail.Address{Local: "user0", Domain: loadgen.Domain}
	m["captcha.issue_ns"] = perOp(n, func(i int) {
		d.eng.Captcha().Issue("captcha-probe-"+strconv.Itoa(i), rcpt, mail.Address{Local: "s" + strconv.Itoa(i), Domain: "example.com"})
	})
	return nil
}

// probeOverload times an uncontended admission: Wait, then Release.
func probeOverload(m map[string]float64) {
	ctl := overload.New(overload.Config{Name: "probe", Clock: clock.Real{}})
	m["overload.wait_release_ns"] = perOp(100000, func(int) {
		if g, _, ok := ctl.Wait("m"); ok {
			g.Release()
		}
	})
}

// probeStores times the durable stores' public operations unjournalled,
// then a snapshot of what the probes left in them, then the WAL alone
// and the spool fold alone.
func probeStores(tmp string, m map[string]float64) error {
	dir, err := os.MkdirTemp(tmp, "stores-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	clk := clock.Real{}
	const n = 20000
	users := make([]mail.Address, loadgen.Users)
	for i := range users {
		users[i] = mail.Address{Local: "user" + strconv.Itoa(i), Domain: loadgen.Domain}
	}
	senders := make([]mail.Address, n)
	for i := range senders {
		senders[i] = mail.Address{Local: "contact" + strconv.Itoa(i), Domain: "example.com"}
	}

	wl := whitelist.NewStore(clk)
	m["whitelist.add_ns"] = perOp(n, func(i int) { wl.AddWhite(users[i%len(users)], senders[i], whitelist.SourceManual) })
	m["whitelist.lookup_ns"] = perOp(n, func(i int) { wl.IsWhite(users[i%len(users)], senders[(i*7)%n]) })

	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	m["reputation.record_ns"] = perOp(n, func(i int) { rep.Record(senders[i], "127.0.0.1", reputation.Delivered) })
	m["reputation.lookup_ns"] = perOp(n, func(i int) { _, _ = rep.Lookup(senders[(i*7)%n], "127.0.0.1") })

	sp := spool.NewState()
	rec := &spool.Recorder{State: sp}
	now := time.Now()
	m["spool.enqueue_ns"] = perOp(n, func(i int) {
		rec.Enqueue(now, spool.Challenge{MsgID: "spool-probe-" + strconv.Itoa(i), Token: "t", From: users[0], To: senders[i], Subject: "s", URL: "http://localhost/challenge/t", Issued: now})
	})

	saver := &store.Saver{Path: filepath.Join(dir, "state.json"), Name: "probe"}
	start := time.Now()
	if err := saver.Save(store.Stores{Whitelist: wl, Reputation: rep, Spool: sp}, 0, now); err != nil {
		return err
	}
	m["store.snapshot_save_ms"] = float64(time.Since(start)) / 1e6

	// The WAL: appends under group commit, a synchronous commit, replay.
	opts := wal.Options{Dir: filepath.Join(dir, "wal"), FsyncInterval: 2 * time.Millisecond, SegmentBytes: 4 << 20}
	l, _, err := wal.Open(opts, 0, func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	record := spool.EnqueueRecord(now, spool.Challenge{MsgID: "wal-probe", Token: "t", From: users[0], To: senders[0], Subject: "benchmark message", URL: "http://localhost/challenge/t", Issued: now})
	var appendErr error
	m["wal.append_ns"] = perOp(n, func(int) {
		if _, err := l.Append(record); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		l.Close()
		return appendErr
	}
	var syncs []float64
	for i := 0; i < 30; i++ {
		if _, err := l.Append(record); err != nil {
			l.Close()
			return err
		}
		start := time.Now()
		if err := l.Sync(); err != nil {
			l.Close()
			return err
		}
		syncs = append(syncs, float64(time.Since(start))/1e3)
	}
	m["wal.sync_us"] = loadgen.Median(syncs)
	if err := l.Close(); err != nil {
		return err
	}
	replayed := 0
	start = time.Now()
	l, _, err = wal.Open(opts, 0, func(wal.Record) error { replayed++; return nil })
	if err != nil {
		return err
	}
	took := time.Since(start).Seconds()
	l.Close()
	if replayed != n+30 {
		return fmt.Errorf("wal probe: replayed %d records, appended %d", replayed, n+30)
	}
	m["wal.replay_records_per_s"] = float64(replayed) / took
	return nil
}
