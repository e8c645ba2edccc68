package adminui

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/mail"
	"repro/internal/overload"
	"repro/internal/reputation"
	"repro/internal/whitelist"
)

var t0 = time.Date(2010, 7, 1, 9, 0, 0, 0, time.UTC)

// fixture builds an engine with one quarantined message for bob.
func fixture(t *testing.T) (*core.Engine, *clock.Sim, *mail.Message, *httptest.Server) {
	t.Helper()
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")
	dns.AddPTR("192.0.2.10", "mail.example.com")
	eng := core.New(core.Config{
		Name:             "ui",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, filters.NewChain(filters.NewReverseDNS(dns)), whitelist.NewStore(clk),
		func(core.OutboundChallenge) {})
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))

	msg := &mail.Message{
		ID:           mail.NewID("ui"),
		EnvelopeFrom: mail.MustParseAddress("newsletter@news.example"),
		Rcpt:         mail.MustParseAddress("bob@corp.example"),
		Subject:      "weekly digest of interesting things",
		Size:         4000,
		ClientIP:     "192.0.2.10",
		Received:     clk.Now(),
	}
	dns.RegisterMailDomain("news.example", "192.0.2.30")
	if v := eng.Receive(msg); v != core.Accepted {
		t.Fatalf("fixture message verdict %v", v)
	}
	srv := httptest.NewServer(New(eng).Handler())
	t.Cleanup(srv.Close)
	return eng, clk, msg, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

func post(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

func TestDigestPageListsPending(t *testing.T) {
	_, _, msg, srv := fixture(t)
	code, body := get(t, srv.URL+"/digest/bob@corp.example")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"bob@corp.example", msg.ID, "newsletter@news.example", "weekly digest", "Authorize", "Delete"} {
		if !strings.Contains(body, want) {
			t.Fatalf("digest page missing %q:\n%s", want, body)
		}
	}
}

func TestDigestPageEmptyState(t *testing.T) {
	eng, _, msg, srv := fixture(t)
	if err := eng.DeleteFromDigest(mail.MustParseAddress("bob@corp.example"), msg.ID); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, srv.URL+"/digest/bob@corp.example")
	if code != http.StatusOK || !strings.Contains(body, "Nothing pending") {
		t.Fatalf("empty digest: %d\n%s", code, body)
	}
}

func TestAuthorizeDeliversAndWhitelists(t *testing.T) {
	eng, clk, msg, srv := fixture(t)
	clk.Advance(26 * time.Hour)
	code, body := post(t, srv.URL+"/digest/bob@corp.example/authorize?msg="+msg.ID)
	if code != http.StatusOK || !strings.Contains(body, "whitelisted") {
		t.Fatalf("authorize: %d %q", code, body)
	}
	bob := mail.MustParseAddress("bob@corp.example")
	if !eng.Whitelists().IsWhite(bob, msg.EnvelopeFrom) {
		t.Fatal("sender not whitelisted")
	}
	ds := eng.Deliveries()
	if len(ds) != 1 || ds[0].Via != core.ViaDigest || ds[0].Delay() != 26*time.Hour {
		t.Fatalf("deliveries = %+v", ds)
	}
	// Second authorize: 404 (already gone).
	code, _ = post(t, srv.URL+"/digest/bob@corp.example/authorize?msg="+msg.ID)
	if code != http.StatusNotFound {
		t.Fatalf("double authorize status = %d", code)
	}
}

func TestDeleteDropsQuarantine(t *testing.T) {
	eng, _, msg, srv := fixture(t)
	code, _ := post(t, srv.URL+"/digest/bob@corp.example/delete?msg="+msg.ID)
	if code != http.StatusOK {
		t.Fatalf("delete status = %d", code)
	}
	if eng.QuarantineLen() != 0 {
		t.Fatal("quarantine not emptied")
	}
	if eng.Metrics().DigestDeleted != 1 {
		t.Fatal("delete not counted")
	}
}

func TestErrorPaths(t *testing.T) {
	_, _, msg, srv := fixture(t)
	cases := []struct {
		method, path string
		want         int
	}{
		{"GET", "/digest/", http.StatusNotFound},
		{"GET", "/digest/not-an-address", http.StatusBadRequest},
		{"GET", "/digest/ghost@corp.example", http.StatusNotFound},
		{"POST", "/digest/bob@corp.example/authorize", http.StatusBadRequest}, // no msg
		{"POST", "/digest/bob@corp.example/authorize?msg=m-none", http.StatusNotFound},
		{"POST", "/digest/bob@corp.example", http.StatusMethodNotAllowed},                        // POST digest page
		{"GET", "/digest/bob@corp.example/authorize?msg=" + msg.ID, http.StatusMethodNotAllowed}, // GET action
		{"GET", "/digest/bob@corp.example/frobnicate", http.StatusNotFound},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, srv.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

func TestReputationPageAndMetrics(t *testing.T) {
	eng, clk, _, srv := fixture(t)

	// Without a store: 404 (but metrics still serve the engine counters).
	if code, _ := get(t, srv.URL+"/reputation"); code != http.StatusNotFound {
		t.Fatalf("no-store /reputation = %d, want 404", code)
	}

	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	eng.SetReputation(rep)
	good := mail.MustParseAddress("friend@example.com")
	for i := 0; i < 5; i++ {
		rep.Record(good, "192.0.2.10", reputation.Delivered)
		rep.Record(mail.MustParseAddress("spam@junk.example"), "100.64.0.1", reputation.RBLHit)
	}

	code, body := get(t, srv.URL+"/reputation")
	if code != http.StatusOK {
		t.Fatalf("/reputation status = %d", code)
	}
	for _, want := range []string{"Trusted", "Suspect", "friend@example.com", "spam@junk.example", "Shard occupancy"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/reputation missing %q:\n%s", want, body)
		}
	}
	if code, _ := post(t, srv.URL+"/reputation"); code != http.StatusMethodNotAllowed {
		t.Fatal("POST /reputation allowed")
	}

	code, body = get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	for _, want := range []string{"reputation_fast_path 0", "reputation_suspect_drop 0", "reputation_entries", "reputation_records 10"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, _, srv := fixture(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"incoming 1", "spool_gray 1", "challenges_sent 1", "quarantine_len 1",
		"logscan_events_total ", "logscan_bad_lines_total "} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// POST not allowed.
	if code, _ := post(t, srv.URL+"/metrics"); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST metrics = %d", code)
	}
}

// TestOverloadPageAndMetrics exercises the /overload page and the
// admission counters exported on /metrics.
func TestOverloadPageAndMetrics(t *testing.T) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("corp.example", "192.0.2.10")
	eng := core.New(core.Config{
		Name:    "ui-overload",
		Domains: []string{"corp.example"},
	}, clk, dns, nil, whitelist.NewStore(clk), nil)

	ctl := overload.New(overload.Config{
		MinLimit: 1, InitialLimit: 1, MaxLimit: 1,
		QueueCapacity: -1, Clock: clk, Name: "ui-overload",
	})
	ui := New(eng)
	ui.SetOverload(ctl)
	srv := httptest.NewServer(ui.Handler())
	t.Cleanup(srv.Close)

	// One admission held, one shed at the limit.
	out := ctl.Submit("m1", nil, nil)
	if out.Granted == nil {
		t.Fatal("first submission not granted")
	}
	if !ctl.Submit("m2", nil, nil).Shed() {
		t.Fatal("second submission not shed")
	}

	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"overload_shed_total 1",
		"admission_queue_depth 0",
		"admission_limit 1.00",
		"admission_inflight 1",
		"admission_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, srv.URL+"/overload")
	if code != http.StatusOK {
		t.Fatalf("/overload = %d", code)
	}
	for _, want := range []string{"accepting", "limit", "tempfailed"} {
		if !strings.Contains(body, want) {
			t.Errorf("/overload missing %q", want)
		}
	}

	ctl.StartDrain()
	_, body = get(t, srv.URL+"/overload")
	if !strings.Contains(body, "draining") {
		t.Error("/overload does not show draining state")
	}
}

// TestOverloadPageUnconfigured is the no-controller 404.
func TestOverloadPageUnconfigured(t *testing.T) {
	_, _, _, srv := fixture(t)
	if code, _ := get(t, srv.URL+"/overload"); code != http.StatusNotFound {
		t.Errorf("/overload without controller = %d, want 404", code)
	}
}
