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

func main() {
	var (
		smtpAddr  = flag.String("smtp", ":2525", "SMTP listen address")
		httpAddr  = flag.String("http", ":8080", "challenge web server listen address")
		domain    = flag.String("domain", "corp.example", "local mail domain")
		users     = flag.String("users", "bob,alice,admin", "comma-separated protected local parts")
		openRelay = flag.Bool("open-relay", false, "accept mail for relay domains")
		relayFor  = flag.String("relay-for", "", "comma-separated relayed domains (with -open-relay)")
		permitAll = flag.Bool("resolve-all", true, "treat every sender domain as resolvable (no real DNS in the sandbox)")
		statePath = flag.String("state", "", "whitelist snapshot file (loaded at boot, saved periodically and on SIGINT)")
		smarthost = flag.String("smarthost", "", "next-hop SMTP server for outgoing challenges (host:port); empty = log only")
		faultPlan = flag.String("fault-plan", "", "JSON fault plan file; injects faults into DNS (dns), the blocklist (rbl:local-dnsbl), the scanner (av), the reputation store (reputation), the smarthost path (smarthost, smarthost-dial, domain:<d>), the outbound-spool journal (wal-spool, with -smarthost and -wal-dir), the WAL (wal-append, wal-fsync, with -wal-dir) and state saves (store)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault injector's RNG (with -fault-plan)")
		maxQueued = flag.Int("max-outbound", 1000, "bound on in-flight outbound challenges; overflow defers (0 = unbounded)")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight SMTP sessions before force-closing")
		walDir    = flag.String("wal-dir", "", "write-ahead-log directory; every whitelist/reputation mutation is journalled and replayed over the snapshot at boot (empty = snapshots only)")
		walFsync  = flag.Duration("wal-fsync-interval", 2*time.Millisecond, "group-commit window: how long the flusher waits to batch concurrent appends into one fsync (0 = fsync eagerly)")
		walSeg    = flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")
	)
	flag.Parse()

	clk := clock.Real{}
	dns := dnssim.NewServer()
	provider := rbl.NewProvider("local-dnsbl", rbl.DefaultPolicy(), clk)

	// Without a plan set stays nil, so every seam returns its input, and
	// inj stays a nil interface for the owners that consult the plan
	// themselves (reputation, the WAL, state saves, the smarthost path).
	var set *faults.Set
	var inj faults.Injector
	if *faultPlan != "" {
		plan, err := faults.LoadFile(*faultPlan)
		if err != nil {
			log.Fatalf("fault plan: %v", err)
		}
		set = faults.New(plan, *faultSeed, clk)
		inj = set
		log.Printf("fault injection active (seed %d):\n%s", *faultSeed, plan.Describe())
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
	st := store.Stores{Whitelist: wl, Reputation: rep, Spool: sp}
	saver := &store.Saver{Path: *statePath, Name: "crserver", Injector: inj}
	var walLog *wal.Log
	var journal *wal.Journal
	if *walDir != "" {
		// Crash recovery: newest snapshot first, then the WAL suffix past
		// its cut. A torn tail (the normal aftermath of a crash) is
		// truncated, never fatal.
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			log.Fatalf("wal dir: %v", err)
		}
		rec, err := store.Recover(*statePath, wal.Options{
			Dir:           *walDir,
			FsyncInterval: *walFsync,
			SegmentBytes:  *walSeg,
			Injector:      inj,
		}, st)
		if err != nil {
			log.Fatalf("recovery: %v", err)
		}
		walLog = rec.Log
		if rec.Snapshot != nil {
			log.Printf("restored snapshot %q (wal cut %d, %d reputation entries) from %s",
				rec.Snapshot.Name, rec.Snapshot.WalLSN, len(rec.Snapshot.Reputation),
				rec.Snapshot.SavedAt.Format(time.RFC3339))
		}
		log.Printf("wal: replayed %d record(s), last LSN %d", rec.Replayed, walLog.LastLSN())
		if rec.Truncated {
			log.Printf("wal: truncated torn tail (%d byte(s) discarded) — expected after a crash", rec.TornBytes)
		}
		journal = wal.NewJournal(walLog)
		journal.Attach(wl, rep, nil)
	} else if *statePath != "" {
		snap, err := store.LoadFile(*statePath, st)
		if err != nil {
			log.Fatalf("state load: %v", err)
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
	bodyDir := *walDir
	if bodyDir == "" {
		bodyDir = os.TempDir()
	}
	bodies := bodystore.New(bodyDir)
	cfg := core.Config{
		Name:             "crserver",
		Domains:          []string{*domain},
		OpenRelay:        *openRelay,
		QuarantineTTL:    30 * 24 * time.Hour,
		ChallengeFrom:    mail.Address{Local: "challenge", Domain: *domain},
		ChallengeBaseURL: challengeBase(*httpAddr),
		Bodies:           bodies,
	}
	if *relayFor != "" {
		cfg.RelayDomains = strings.Split(*relayFor, ",")
	}

	var queue *outbound.Queue
	if *smarthost != "" {
		ocfg := outbound.Config{
			Dial:       func() (*smtp.Client, error) { return smtp.Dial(*smarthost, 10*time.Second) },
			HeloDomain: *domain,
			Injector:   inj,
			MaxQueued:  *maxQueued,
			Spool:      sp,
		}
		if journal != nil {
			ocfg.Journal = seam.Journal(journal.Emit, set)
		}
		queue = outbound.NewQueue(ocfg)
		// The queue delivers the challenges still pending in the
		// recovered spool on its next flush: a crash between Enqueue and
		// the terminal transition loses nothing.
		if n := sp.Len(); n > 0 {
			log.Printf("outbound: restored %d pending challenge(s) from the recovered spool", n)
		}
	}
	eng := core.New(cfg, clk, resolver, chain, wl, challengeSender(queue))
	eng.SetReputation(rep)
	// Admission control: the gateway consults ctl before accepting DATA
	// (shed mail gets 451/421, never a silent drop), the engine feeds
	// per-message service latency into the AIMD limiter, and probe-filter
	// work is shed while the admission queue is pressured.
	ctl := overload.New(overload.Config{Name: "crserver", Clock: clk})
	eng.SetServiceObserver(ctl.Observe)
	eng.SetPressure(ctl.Pressured)
	inboxes := mailbox.NewStore()
	inboxes.SetBodies(bodies)
	eng.SetInboxSink(inboxes.Sink())
	for _, u := range strings.Split(*users, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		addr := mail.Address{Local: u, Domain: *domain}
		eng.AddUser(addr)
		log.Printf("protected user: %s", addr)
	}
	if *permitAll {
		// Without real DNS every sender would bounce as unresolvable;
		// pre-register common test domains and let operators add more.
		for _, d := range []string{"example.com", "example.org", "gmail.example", "test.example"} {
			dns.RegisterMailDomain(d, "192.0.2.1")
		}
	}

	// Challenge web server + quarantine digest UI + metrics.
	ui := adminui.New(eng)
	ui.SetOverload(ctl)
	ui.SetSaver(saver)
	ui.SetBodies(bodies)
	if walLog != nil {
		ui.SetWAL(walLog)
	}
	if queue != nil {
		ui.SetOutbound(queue)
	}
	mux := webMux(eng, ui, inboxes)
	go func() {
		log.Printf("web server on %s (challenge pages, /digest/<user>, /mbox/<user>, /reputation, /overload, /metrics)", *httpAddr)
		log.Fatal(http.ListenAndServe(*httpAddr, mux))
	}()

	// Daily quarantine sweep + periodic state snapshots.
	go func() {
		for range time.Tick(time.Hour) {
			if n := eng.ExpireQuarantine(); n > 0 {
				log.Printf("expired %d quarantined message(s)", n)
			}
			saveState(saver, st, walLog)
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

	srv := smtp.NewServer(smtp.Config{Hostname: "mta." + *domain},
		gateway.New(eng, gateway.WithOverload(ctl)))
	l, err := net.Listen("tcp", *smtpAddr)
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
		drain(ctl, srv, queue, saver, st, walLog, *drainWait)
		log.Printf("drain complete; exiting")
		os.Exit(0)
	}()

	log.Printf("SMTP MTA-IN on %s (domain %s, open-relay=%v)", *smtpAddr, *domain, *openRelay)
	err = srv.Serve(l)
	if ctl.Draining() {
		select {} // Serve returned because drain closed the listener; let the drain goroutine exit the process
	}
	log.Fatal(err)
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
