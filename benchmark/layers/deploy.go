package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"path/filepath"
	"strconv"
	"time"

	"repro/benchmark/loadgen"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnscache"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/gateway"
	"repro/internal/mail"
	"repro/internal/mailbox"
	"repro/internal/outbound"
	"repro/internal/overload"
	"repro/internal/rbl"
	"repro/internal/reputation"
	"repro/internal/resilience"
	"repro/internal/smtp"
	"repro/internal/spool"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// deployment is cmd/crserver's wiring built in-process: the same
// constructors in the same order with the same options as
// `crserver -wal-dir D -state F -smarthost SINK`, minus the HTTP server.
// With a tracer, each seam gets its wrapper; without, it is the
// untraced twin the overhead is measured against.
type deployment struct {
	eng    *core.Engine
	ctl    *overload.Controller
	queue  *outbound.Queue
	walLog *wal.Log
	wl     *whitelist.Store
	rep    *reputation.Store
	stores store.Stores
	sink   *loadgen.Sink
	srv    *smtp.Server
	addr   string
	done   chan struct{}
}

func deploy(dir string, t *tracer) (*deployment, error) {
	log.SetOutput(io.Discard) // crserver logs each challenge; keep the formatting cost, drop the bytes
	clk := clock.Real{}
	dns := dnssim.NewServer()
	provider := rbl.NewProvider("local-dnsbl", rbl.DefaultPolicy(), clk)
	dnsCache := dnscache.New(dns, dnscache.Options{Clock: clk, Gen: dns.Gen})
	rblCache := dnscache.NewRBL(provider, clk, 0)
	var resolver dnssim.Resolver = dnsCache
	var rblBackend filters.RBLBackend = rblCache
	if t != nil {
		resolver = tracedResolver{dnsCache, t}
		rblBackend = tracedRBL{rblCache, t}
	}

	harden := func(pr filters.Prober, mode filters.DegradeMode) filters.Filter {
		return filters.Harden(pr, mode, filters.HardenOpts{
			Breaker: resilience.NewBreaker(pr.Name(), resilience.DefaultBreakerConfig(), clk),
			Seed:    1,
		})
	}
	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	chainFilters := []filters.Filter{
		harden(filters.NewReputation(rep), filters.FailOpen),
		harden(filters.NewAntivirus(), filters.FailClosed),
		harden(filters.NewRBL(rblBackend), filters.FailOpen),
	}
	if t != nil {
		for i, name := range []spanName{spFilterReputation, spFilterAntivirus, spFilterRBL} {
			chainFilters[i] = tracedFilter{chainFilters[i], name, t}
		}
	}
	chain := filters.NewChain(chainFilters...)

	wl := whitelist.NewStore(clk)
	sp := spool.NewState()
	d := &deployment{wl: wl, rep: rep, stores: store.Stores{Whitelist: wl, Reputation: rep, Spool: sp}, done: make(chan struct{})}
	rec, err := store.Recover(filepath.Join(dir, "state.json"), wal.Options{
		Dir:           filepath.Join(dir, "wal"),
		FsyncInterval: 2 * time.Millisecond,
		SegmentBytes:  4 << 20,
	}, d.stores)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	d.walLog = rec.Log
	journal := wal.NewJournal(d.walLog)
	journal.Attach(wl, rep, nil)

	if d.sink, err = loadgen.StartSink(); err != nil {
		d.walLog.Close()
		return nil, err
	}
	sinkAddr := d.sink.Addr()
	ocfg := outbound.Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(sinkAddr, 10*time.Second) },
		HeloDomain: loadgen.Domain,
		MaxQueued:  1000,
		Spool:      sp,
		Journal:    journal.Emit,
	}
	if t != nil {
		ocfg.Dial = tracedDial(ocfg.Dial, t)
		ocfg.Journal = tracedJournal(ocfg.Journal, t)
	}
	d.queue = outbound.NewQueue(ocfg)
	var sendChallenge core.ChallengeSender = func(ch core.OutboundChallenge) {
		log.Printf("CHALLENGE to %s for message %s — solve at %s", ch.To, ch.MsgID, ch.URL)
		d.queue.Enqueue(ch)
	}
	if t != nil {
		sendChallenge = tracedSender(sendChallenge, t)
	}

	d.eng = core.New(core.Config{
		Name:             "crserver",
		Domains:          []string{loadgen.Domain},
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.Address{Local: "challenge", Domain: loadgen.Domain},
		ChallengeBaseURL: "http://localhost:8080",
	}, clk, resolver, chain, wl, sendChallenge)
	d.eng.SetReputation(rep)
	d.ctl = overload.New(overload.Config{Name: "crserver", Clock: clk})
	d.eng.SetServiceObserver(d.ctl.Observe)
	d.eng.SetPressure(d.ctl.Pressured)
	inbox := mailbox.NewStore().Sink()
	if t != nil {
		inbox = tracedInbox(inbox, t)
	}
	d.eng.SetInboxSink(inbox)
	for u := 0; u < loadgen.Users; u++ {
		d.eng.AddUser(mail.Address{Local: "user" + strconv.Itoa(u), Domain: loadgen.Domain})
	}
	for _, dom := range []string{"example.com", "example.org", "gmail.example", "test.example"} {
		dns.RegisterMailDomain(dom, "192.0.2.1")
	}

	var backend smtp.Backend = gateway.New(d.eng, gateway.WithOverload(d.ctl))
	if t != nil {
		backend = tracedBackend{backend, t}
	}
	d.srv = smtp.NewServer(smtp.Config{Hostname: "mta." + loadgen.Domain}, backend)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.sink.Close()
		d.walLog.Close()
		return nil, err
	}
	d.addr = ln.Addr().String()
	go func() {
		_ = d.srv.Serve(ln) // returns net.ErrClosed after Close
		close(d.done)
	}()
	return d, nil
}

// whitelistPairs seeds the mix's contact pairs. The replay is about the
// load phase, so it whitelists through the engine's own entry point
// instead of the digest UI the end-to-end run uses.
func (d *deployment) whitelistPairs(pairs int) {
	for p := 0; p < pairs; p++ {
		user, contact := loadgen.PairAddrs(p)
		d.eng.AddManualWhitelist(mail.MustParseAddress(user), mail.MustParseAddress(contact))
	}
}

// flushAll pushes every queued challenge to the sink, as crserver's
// drain does, and returns how many reached a terminal state.
func (d *deployment) flushAll() (int, error) {
	sent := 0
	for {
		n, err := d.queue.FlushAll()
		sent += n
		if err != nil {
			return sent, err
		}
		remaining := d.queue.Stats()[outbound.StatusQueued] + d.queue.Deferred()
		if remaining == 0 || n == 0 {
			return sent, nil
		}
	}
}

func (d *deployment) close() {
	d.srv.Close()
	<-d.done
	d.sink.Close()
	_ = d.walLog.Close() // the directory is discarded with the run
}
