package main

import (
	"bytes"
	"errors"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/faults"
	"repro/internal/faults/seam"
	"repro/internal/gateway"
	"repro/internal/mail"
	"repro/internal/outbound"
	"repro/internal/overload"
	"repro/internal/smtp"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// smarthostFake records what the outbound queue delivers to it.
type smarthostFake struct {
	mu       sync.Mutex
	accepted []*mail.Message
}

func (s *smarthostFake) ValidateSender(mail.Address) *smtp.Reply    { return nil }
func (s *smarthostFake) ValidateRcpt(_, _ mail.Address) *smtp.Reply { return nil }
func (s *smarthostFake) Deliver(m *mail.Message) *smtp.Reply {
	kept := *m
	kept.Body = strings.Clone(m.Body) // the body is borrowed
	s.mu.Lock()
	s.accepted = append(s.accepted, &kept)
	s.mu.Unlock()
	return nil
}

func (s *smarthostFake) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.accepted)
}

// newSmarthost starts a fake smarthost on loopback for the test's
// lifetime and returns it with an outbound queue that delivers to it.
func newSmarthost(t *testing.T) (*smarthostFake, *outbound.Queue) {
	t.Helper()
	sh := &smarthostFake{}
	srv := smtp.NewServer(smtp.Config{Hostname: "smarthost.example", ReadTimeout: 5 * time.Second}, sh)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return sh, outbound.NewQueue(outbound.Config{
		Dial:       func() (*smtp.Client, error) { return smtp.Dial(l.Addr().String(), 2*time.Second) },
		HeloDomain: "corp.example",
		MaxQueued:  10,
	})
}

// TestDrainGraceful is the shutdown e2e: an in-flight SMTP session is
// allowed to finish (its mid-drain transaction is tempfailed 421, never
// dropped), new connections are refused, the outbound challenge queue
// flushes to the smarthost ignoring retry timers, and the final state
// snapshot lands on disk.
func TestDrainGraceful(t *testing.T) {
	clk := clock.Real{}

	// Fake smarthost the outbound queue drains into.
	sh, queue := newSmarthost(t)

	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.1")
	wl := whitelist.NewStore(clk)
	eng := core.New(core.Config{
		Name:             "drain-test",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, nil, wl, queue.Sender())
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))

	ctl := overload.New(overload.Config{Name: "drain-test", Clock: clk})
	eng.SetPressure(ctl.Pressured)

	srv := smtp.NewServer(smtp.Config{Hostname: "mta.corp.example", ReadTimeout: 5 * time.Second},
		gateway.New(eng, gateway.WithOverload(ctl)))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	addr := l.Addr().String()

	c, err := smtp.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("client.example.com"); err != nil {
		t.Fatal(err)
	}

	// A pre-drain delivery: gray mail from an unknown sender, which
	// makes the engine emit a challenge into the (unflushed) queue.
	from := mail.MustParseAddress("alice@example.com")
	to := mail.MustParseAddress("bob@corp.example")
	if err := c.SendMail(from, []mail.Address{to}, smtp.BuildMessage(from, to, "hello there", "hi bob")); err != nil {
		t.Fatalf("pre-drain transaction: %v", err)
	}
	if got := queue.Stats()[outbound.StatusQueued]; got != 1 {
		t.Fatalf("challenge not queued before drain: stats %v", queue.Stats())
	}

	statePath := t.TempDir() + "/state.json"
	saver := &store.Saver{Path: statePath, Name: "drain-test"}

	done := make(chan struct{})
	go func() {
		drain(ctl, srv, queue, saver, store.Stores{Whitelist: wl}, nil, 5*time.Second)
		close(done)
	}()

	// The listener closes promptly: fresh connections are refused (or
	// greeted 421 if they raced the close) while the session drains.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c2, err := smtp.Dial(addr, 200*time.Millisecond)
		if err != nil {
			break
		}
		c2.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after drain started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The in-flight session keeps its connection: its next transaction
	// is tempfailed (421, draining) rather than dropped or hung.
	err = c.SendMail(from, []mail.Address{to}, smtp.BuildMessage(from, to, "late mail", "too late"))
	if err == nil {
		t.Fatal("mid-drain transaction accepted; want 421 tempfail")
	}
	if !strings.Contains(err.Error(), "421") {
		t.Fatalf("mid-drain transaction error %q, want a 421 tempfail", err)
	}
	if err := c.Quit(); err != nil {
		t.Fatalf("quit during drain: %v", err)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}

	// The queued challenge was flushed to the smarthost during drain.
	if got := sh.count(); got != 1 {
		t.Fatalf("smarthost received %d message(s) during drain, want 1", got)
	}
	if left := queue.Stats()[outbound.StatusQueued] + queue.Deferred(); left != 0 {
		t.Fatalf("%d challenge(s) left behind after drain", left)
	}
	// The final snapshot is on disk.
	if fi, err := os.Stat(statePath); err != nil || fi.Size() == 0 {
		t.Fatalf("final snapshot missing or empty: %v", err)
	}
	// The shed is accounted as a draining tempfail, not a drop.
	if ctl.Metrics().Shed[overload.ReasonDraining] == 0 {
		t.Error("mid-drain shed not recorded with reason draining")
	}
}

// TestChallengeTokenStaysOutOfLog: a challenge URL carries the CAPTCHA
// token, and solving it releases the message and whitelists the sender.
// With a smarthost the challenge is mailed and the token must reach the
// smarthost only, never the server log; in the log-only demo the log is
// where the URL goes.
func TestChallengeTokenStaysOutOfLog(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	sh, queue := newSmarthost(t)

	clk := clock.Real{}
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.1")
	var issued []core.OutboundChallenge
	send := challengeSender(queue)
	eng := core.New(core.Config{
		Name:             "token-test",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, nil, whitelist.NewStore(clk), func(ch core.OutboundChallenge) {
		issued = append(issued, ch)
		send(ch)
	})
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	eng.Receive(&mail.Message{
		ID:           mail.NewID("gray"),
		EnvelopeFrom: mail.MustParseAddress("alice@example.com"),
		Rcpt:         mail.MustParseAddress("bob@corp.example"),
		Subject:      "hello",
		Size:         100,
		ClientIP:     "192.0.2.1",
		Received:     clk.Now(),
	})
	if len(issued) != 1 || issued[0].Token == "" || !strings.Contains(issued[0].URL, issued[0].Token) {
		t.Fatalf("want one challenge whose URL carries its token, got %+v", issued)
	}
	token := issued[0].Token
	if _, err := queue.FlushAll(); err != nil {
		t.Fatal(err)
	}

	sh.mu.Lock()
	var mailed string
	for _, m := range sh.accepted {
		mailed += m.Body
	}
	sh.mu.Unlock()
	if !strings.Contains(mailed, token) {
		t.Errorf("the challenge mailed to the smarthost lacks its token %q", token)
	}
	if strings.Contains(logged.String(), token) {
		t.Errorf("the server log holds the CAPTCHA token with a smarthost set:\n%s", logged.String())
	}

	logged.Reset()
	challengeSender(nil)(issued[0])
	if !strings.Contains(logged.String(), issued[0].URL) {
		t.Errorf("log-only mode did not log the solve URL; log:\n%s", logged.String())
	}
}

// TestFailedWALDegradesToSnapshots: once a WAL fsync fails the log
// takes no more records, and the state checkpoint still saves a
// snapshot, so recovery holds the mutations the log refused as well as
// those it never made durable: the server runs on as it does without
// -wal-dir.
func TestFailedWALDegradesToSnapshots(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	dir := t.TempDir()
	statePath, walDir := filepath.Join(dir, "state.json"), filepath.Join(dir, "wal")
	clk := clock.NewSim(time.Date(2011, 4, 1, 12, 0, 0, 0, time.UTC))
	set := faults.New(&faults.Plan{Rules: []faults.Rule{{Target: "wal-fsync", Kind: faults.KindError}}}, 1, clk)
	wl := whitelist.NewStore(clk)
	st := store.Stores{Whitelist: wl}
	saver := &store.Saver{Path: statePath, Name: "crserver", Fsync: seam.Fsync(set, "store")}
	rec, err := store.Recover(statePath, wal.Options{
		Dir:           walDir,
		FsyncInterval: walFsyncInterval,
		SegmentBytes:  walSegmentBytes,
		Fsync:         seam.Fsync(set, "wal-fsync"),
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	walLog := rec.Log
	wal.NewJournal(seam.Appender(walLog, set)).Attach(wl)

	bob := mail.MustParseAddress("bob@corp.example")
	alice, carol := mail.MustParseAddress("alice@example.com"), mail.MustParseAddress("carol@example.com")
	wl.AddWhite(bob, alice, whitelist.SourceDigest)
	if err := walLog.Sync(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Sync under the fsync fault = %v, want the injected error", err)
	}
	wl.AddWhite(bob, carol, whitelist.SourceDigest)
	if got := walLog.LastLSN(); got != 1 {
		t.Fatalf("the failed log assigned LSN %d to the second pair, want it dropped at LSN 1", got)
	}

	saveState(saver, st, walLog)
	if !strings.Contains(logged.String(), "compaction skipped") {
		t.Errorf("the checkpoint did not report the failed log; log:\n%s", logged.String())
	}
	if err := walLog.Close(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Close of the failed log = %v, want the injected error", err)
	}

	cold := whitelist.NewStore(clk)
	rec, err = store.Recover(statePath, wal.Options{Dir: walDir}, store.Stores{Whitelist: cold})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if rec.Snapshot == nil || rec.Snapshot.WalLSN != 1 {
		t.Fatalf("recovered snapshot %+v, want one at WAL cut 1", rec.Snapshot)
	}
	for _, sender := range []mail.Address{alice, carol} {
		if !cold.IsWhite(bob, sender) {
			t.Errorf("recovery lost the whitelist pair (%s, %s)", bob, sender)
		}
	}
}
