// Command crserver runs one live CR installation: an SMTP MTA-IN on a TCP
// port plus the CAPTCHA web server, exactly the two public surfaces of
// the product the paper studied. Poke it with any SMTP client:
//
//	crserver -smtp :2525 -http :8080 -domain corp.example -users bob,carol
//
//	$ nc localhost 2525
//	220 mta.corp.example ESMTP ready
//	EHLO test
//	MAIL FROM:<alice@example.com>
//	RCPT TO:<bob@corp.example>
//	DATA
//	Subject: hello
//
//	hi bob
//	.
//
// The server logs each decision. Without -smarthost, challenges print
// their URL, which you can open in a browser to solve the CAPTCHA and
// release the message; with -smarthost they are mailed, and the URL,
// which carries the CAPTCHA token, stays out of the log.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/adminui"
	"repro/internal/bodystore"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/faults/seam"
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

// Settings every deployment runs with.
const (
	// walFsyncInterval is the WAL's group-commit window: how long the
	// flusher waits to batch concurrent appends into one fsync.
	walFsyncInterval = 2 * time.Millisecond
	// walSegmentBytes is the WAL segment rotation threshold.
	walSegmentBytes = 4 << 20
	// maxOutbound bounds how many pending challenges one outbound flush
	// considers; the rest are deferred, never dropped.
	maxOutbound = 1000
)

// options are crserver's flags.
type options struct {
	smtpAddr, httpAddr, domain, users string
	openRelay                         bool
	relayFor                          string
	permitAll                         bool
	statePath, smarthost, walDir      string
	faultPlan                         string
	faultSeed                         int64
	drainWait                         time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.smtpAddr, "smtp", ":2525", "SMTP listen address")
	flag.StringVar(&o.httpAddr, "http", ":8080", "challenge web server listen address")
	flag.StringVar(&o.domain, "domain", "corp.example", "local mail domain")
	flag.StringVar(&o.users, "users", "bob,alice,admin", "comma-separated protected local parts")
	flag.BoolVar(&o.openRelay, "open-relay", false, "accept mail for relay domains")
	flag.StringVar(&o.relayFor, "relay-for", "", "comma-separated relayed domains (with -open-relay)")
	flag.BoolVar(&o.permitAll, "resolve-all", true, "treat every sender domain as resolvable (no real DNS in the sandbox)")
	flag.StringVar(&o.statePath, "state", "", "whitelist snapshot file (loaded at boot, saved periodically and on SIGINT)")
	flag.StringVar(&o.smarthost, "smarthost", "", "next-hop SMTP server for outgoing challenges (host:port); empty = log only")
	flag.StringVar(&o.faultPlan, "fault-plan", "", "JSON fault plan file; injects faults into DNS (dns), the blocklist (rbl:local-dnsbl), the scanner (av), the reputation store (reputation), the smarthost path (smarthost, smarthost-dial, domain:<d>), the outbound-spool journal (wal-spool, with -smarthost and -wal-dir), WAL appends and fsyncs (wal-append, wal-fsync, with -wal-dir) and the snapshot's fsync (store, with -state)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the fault injector's RNG (with -fault-plan)")
	flag.DurationVar(&o.drainWait, "drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight SMTP sessions before force-closing")
	flag.StringVar(&o.walDir, "wal-dir", "", "write-ahead-log directory; every whitelist/reputation mutation is journalled and replayed over the snapshot at boot (empty = snapshots only)")
	flag.Parse()

	s, err := build(o)
	if err != nil {
		log.Fatal(err)
	}
	eng, queue, ctl := s.eng, s.queue, s.ctl

	// Challenge web server + quarantine digest UI + metrics.
	ui := adminui.New(eng)
	ui.SetOverload(ctl)
	ui.SetSaver(s.saver)
	ui.SetBodies(s.bodies)
	if s.walLog != nil {
		ui.SetWAL(s.walLog)
	}
	if queue != nil {
		ui.SetOutbound(queue)
	}
	mux := webMux(eng, ui, s.inboxes)
	go func() {
		log.Printf("web server on %s (challenge pages, /digest/<user>, /mbox/<user>, /reputation, /overload, /metrics)", o.httpAddr)
		log.Fatal(http.ListenAndServe(o.httpAddr, mux))
	}()

	// Daily quarantine sweep + periodic state snapshots.
	go func() {
		for range time.Tick(time.Hour) {
			if n := eng.ExpireQuarantine(); n > 0 {
				log.Printf("expired %d quarantined message(s)", n)
			}
			saveState(s.saver, s.st, s.walLog)
		}
	}()

	// Outbound challenge queue runner.
	if queue != nil {
		go func() {
			for range time.Tick(30 * time.Second) {
				if n, err := queue.Flush(); err != nil {
					log.Printf("outbound flush: %v", err)
				} else if n > 0 {
					log.Printf("outbound: %d challenge(s) reached terminal state; queue now %v", n, queue.Stats())
				}
			}
		}()
	}

	srv := smtp.NewServer(smtp.Config{Hostname: "mta." + o.domain}, s.backend)
	l, err := net.Listen("tcp", o.smtpAddr)
	if err != nil {
		log.Fatalf("smtp listen: %v", err)
	}

	// Graceful drain on SIGINT/SIGTERM: stop admitting (new mail is
	// tempfailed 421), let in-flight SMTP sessions finish, flush the
	// outbound challenge queue, write the final snapshot, exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("%v received; draining", sig)
		drain(ctl, srv, queue, s.saver, s.st, s.walLog, o.drainWait)
		log.Printf("drain complete; exiting")
		os.Exit(0)
	}()

	log.Printf("SMTP MTA-IN on %s (domain %s, open-relay=%v)", o.smtpAddr, o.domain, o.openRelay)
	err = srv.Serve(l)
	if ctl.Draining() {
		select {} // Serve returned because drain closed the listener; let the drain goroutine exit the process
	}
	log.Fatal(err)
}

// server is one installation's mail path, built by build: everything
// between the SMTP listener and the web server.
type server struct {
	eng     *core.Engine
	backend *gateway.Backend // what the SMTP listener delivers to
	queue   *outbound.Queue  // nil without -smarthost
	ctl     *overload.Controller
	st      store.Stores
	saver   *store.Saver
	walLog  *wal.Log // nil without -wal-dir
	bodies  *bodystore.Store
	inboxes *mailbox.Store
}

// build recovers the durable state and wires the mail path: filters,
// stores, WAL journal, body store, outbound queue, engine and admission
// control.
func build(o options) (*server, error) {
	clk := clock.Real{}
	dns := dnssim.NewServer()
	provider := rbl.NewProvider("local-dnsbl", rbl.DefaultPolicy(), clk)

	// Without a plan set stays nil, so every seam returns its input, and
	// inj stays a nil interface for the owners that consult the plan
	// themselves (reputation and the smarthost path).
	var set *faults.Set
	var inj faults.Injector
	if o.faultPlan != "" {
		plan, err := faults.LoadFile(o.faultPlan)
		if err != nil {
			return nil, fmt.Errorf("fault plan: %v", err)
		}
		set = faults.New(plan, o.faultSeed, clk)
		inj = set
		log.Printf("fault injection active (seed %d):\n%s", o.faultSeed, plan.Describe())
	}

	// The zone and the blocklist are read directly: the zone is static
	// once the server boots, so a cache in front of it could only add
	// cost. Under a fault plan the seams inject into these reads.
	resolver := seam.Resolver(dns, set)
	rblBackend := seam.RBL(provider, set)

	av := seam.Antivirus(filters.NewAntivirus(), set)
	harden := func(pr filters.Prober, mode filters.DegradeMode) filters.Filter {
		return filters.Harden(pr, mode, filters.HardenOpts{
			Breaker: resilience.NewBreaker(pr.Name(), resilience.DefaultBreakerConfig(), clk),
		})
	}
	repCfg := reputation.DefaultConfig()
	repCfg.Injector = inj
	rep := reputation.NewStore(repCfg, clk)
	chain := filters.NewChain(
		harden(filters.NewReputation(rep), filters.FailOpen),
		harden(av, filters.FailClosed),
		harden(filters.NewRBL(rblBackend), filters.FailOpen),
	)
	wl := whitelist.NewStore(clk)
	sp := spool.NewState()
	s := &server{
		st:    store.Stores{Whitelist: wl, Reputation: rep, Spool: sp},
		saver: &store.Saver{Path: o.statePath, Name: "crserver", Fsync: seam.Fsync(set, "store")},
	}
	var journal *wal.Journal
	if o.walDir != "" {
		// Crash recovery: newest snapshot first, then the WAL suffix past
		// its cut. A torn tail (the normal aftermath of a crash) is
		// truncated, never fatal.
		if err := os.MkdirAll(o.walDir, 0o755); err != nil {
			return nil, fmt.Errorf("wal dir: %v", err)
		}
		rec, err := store.Recover(o.statePath, wal.Options{
			Dir:           o.walDir,
			FsyncInterval: walFsyncInterval,
			SegmentBytes:  walSegmentBytes,
			Fsync:         seam.Fsync(set, "wal-fsync"),
		}, s.st)
		if err != nil {
			return nil, fmt.Errorf("recovery: %v", err)
		}
		s.walLog = rec.Log
		if rec.Snapshot != nil {
			log.Printf("restored snapshot %q (wal cut %d, %d reputation entries) from %s",
				rec.Snapshot.Name, rec.Snapshot.WalLSN, len(rec.Snapshot.Reputation),
				rec.Snapshot.SavedAt.Format(time.RFC3339))
		}
		log.Printf("wal: replayed %d record(s), last LSN %d", rec.Replayed, s.walLog.LastLSN())
		if rec.Truncated {
			log.Printf("wal: truncated torn tail (%d byte(s) discarded) — expected after a crash", rec.TornBytes)
		}
		journal = wal.NewJournal(seam.Appender(s.walLog, set))
		journal.Attach(wl, rep, nil)
	} else if o.statePath != "" {
		snap, err := store.LoadFile(o.statePath, s.st)
		if err != nil {
			return nil, fmt.Errorf("state load: %v", err)
		}
		if snap != nil {
			log.Printf("restored snapshot %q (%d reputation entries) from %s",
				snap.Name, len(snap.Reputation), snap.SavedAt.Format(time.RFC3339))
		}
	}

	// Quarantined and delivered bodies live in unlinked files next to
	// the WAL (or in the temporary directory), not on the heap. They are
	// not durable: like the quarantine and the inboxes, they are lost on
	// restart.
	bodyDir := o.walDir
	if bodyDir == "" {
		bodyDir = os.TempDir()
	}
	s.bodies = bodystore.New(bodyDir)
	cfg := core.Config{
		Name:             "crserver",
		Domains:          []string{o.domain},
		OpenRelay:        o.openRelay,
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.Address{Local: "challenge", Domain: o.domain},
		ChallengeBaseURL: challengeBase(o.httpAddr),
		Bodies:           s.bodies,
	}
	if o.relayFor != "" {
		cfg.RelayDomains = strings.Split(o.relayFor, ",")
	}

	if o.smarthost != "" {
		ocfg := outbound.Config{
			Dial:       func() (*smtp.Client, error) { return smtp.Dial(o.smarthost, 10*time.Second) },
			HeloDomain: o.domain,
			Injector:   inj,
			MaxQueued:  maxOutbound,
			Spool:      sp,
		}
		if journal != nil {
			ocfg.Journal = seam.Journal(journal.Emit, set)
		}
		s.queue = outbound.NewQueue(ocfg)
		// The queue delivers the challenges still pending in the
		// recovered spool on its next flush: a crash between Enqueue and
		// the terminal transition loses nothing.
		if n := sp.Len(); n > 0 {
			log.Printf("outbound: restored %d pending challenge(s) from the recovered spool", n)
		}
	}
	s.eng = core.New(cfg, clk, resolver, chain, wl, challengeSender(s.queue))
	s.eng.SetReputation(rep)
	// Admission control: the gateway consults ctl before accepting DATA
	// (shed mail gets 451/421, never a silent drop) under the default
	// fixed limit, and probe-filter work is shed while the admission
	// queue is pressured.
	s.ctl = overload.New(overload.Config{Name: "crserver", Clock: clk})
	s.eng.SetPressure(s.ctl.Pressured)
	s.inboxes = mailbox.NewStore()
	s.inboxes.SetBodies(s.bodies)
	s.eng.SetInboxSink(s.inboxes.Sink())
	for _, u := range strings.Split(o.users, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		addr := mail.Address{Local: u, Domain: o.domain}
		s.eng.AddUser(addr)
		log.Printf("protected user: %s", addr)
	}
	if o.permitAll {
		// Without real DNS every sender would bounce as unresolvable;
		// pre-register common test domains and let operators add more.
		for _, d := range []string{"example.com", "example.org", "gmail.example", "test.example"} {
			dns.RegisterMailDomain(d, "192.0.2.1")
		}
	}
	s.backend = gateway.New(s.eng, gateway.WithOverload(s.ctl))
	return s, nil
}

// webMux routes the web server: the challenge pages, the admin UI and
// each user's mailbox as mbox.
func webMux(eng *core.Engine, ui *adminui.Server, inboxes *mailbox.Store) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/challenge/", eng.Captcha().Handler())
	admin := ui.Handler()
	for _, p := range []string{"/digest/", "/metrics", "/reputation", "/overload", "/wal", "/outbound"} {
		mux.Handle(p, admin)
	}
	mux.HandleFunc("/mbox/", func(w http.ResponseWriter, r *http.Request) {
		userRaw := strings.TrimPrefix(r.URL.Path, "/mbox/")
		user, err := mail.ParseAddress(userRaw)
		if err != nil {
			http.Error(w, "bad user address", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/mbox")
		if err := inboxes.WriteMbox(w, user); err != nil {
			log.Printf("mbox export: %v", err)
		}
	})
	return mux
}

// drain is the graceful-shutdown sequence, in order: shed new
// admissions (the gateway answers 421 "shutting down"), wait up to
// timeout for in-flight SMTP sessions, push every queued outbound
// challenge ignoring retry timers until the queue is empty or makes no
// progress, then snapshot durable state (compacting the WAL behind the
// cut) and close the log. Factored out of the signal handler so the
// e2e test drives it directly.
func drain(ctl *overload.Controller, srv *smtp.Server, queue *outbound.Queue, saver *store.Saver, st store.Stores, walLog *wal.Log, timeout time.Duration) {
	ctl.StartDrain()
	if srv.Shutdown(timeout) {
		log.Printf("smtp: all in-flight sessions finished")
	} else {
		log.Printf("smtp: force-closed lingering sessions after %v", timeout)
	}
	if queue != nil {
		for {
			n, err := queue.FlushAll()
			if err != nil {
				log.Printf("outbound drain: %v", err)
				break
			}
			remaining := queue.Stats()[outbound.StatusQueued] + queue.Deferred()
			if remaining == 0 {
				log.Printf("outbound queue flushed")
				break
			}
			if n == 0 {
				log.Printf("outbound drain stalled with %d challenge(s) undeliverable", remaining)
				break
			}
		}
	}
	saveState(saver, st, walLog)
	if walLog != nil {
		if err := walLog.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
}

// challengeSender is how the server hands on each challenge. With a
// smarthost queue the challenge goes out by mail and nothing is logged:
// its URL carries the CAPTCHA token, and whoever holds the token can
// release the message and whitelist its sender, so the token must not
// sit in a log file too. Without one (the log-only demo the package doc
// describes) the log is the only way to reach the URL, so it is printed.
func challengeSender(queue *outbound.Queue) core.ChallengeSender {
	if queue != nil {
		return queue.Sender()
	}
	return func(ch core.OutboundChallenge) {
		log.Printf("CHALLENGE to %s for message %s — solve at %s", ch.To, ch.MsgID, ch.URL)
	}
}

// challengeBase turns the HTTP listen address into the public base URL
// embedded in challenge emails (":8080" means localhost).
func challengeBase(httpAddr string) string {
	if strings.HasPrefix(httpAddr, ":") {
		return "http://localhost" + httpAddr
	}
	return "http://" + httpAddr
}

// saveState snapshots the whitelists and reputation counters through
// store.Checkpoint, which with a WAL attached is also the compaction
// cycle. It logs rather than fails — the mail path must survive a full
// state disk (or an injected write error), and the atomic save keeps
// the previous snapshot intact.
func saveState(s *store.Saver, st store.Stores, walLog *wal.Log) {
	if s.Path == "" {
		return
	}
	cut, n, err := store.Checkpoint(walLog, func(cut uint64) error {
		return s.Save(st, cut, time.Now())
	})
	if err != nil {
		log.Printf("state checkpoint failed: %v", err)
	}
	if n > 0 {
		log.Printf("wal: compacted %d sealed segment(s) behind LSN %d", n, cut)
	}
}
