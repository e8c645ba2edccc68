package captcha

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

var (
	t0    = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	rcpt  = mail.MustParseAddress("bob@corp.example")
	sendr = mail.MustParseAddress("alice@example.com")
)

func newSvc(clk clock.Clock, onSolved func(*Challenge)) *Service {
	return NewService(Config{Clock: clk, TTL: DefaultTTL, OnSolved: onSolved, Seed: 42})
}

func TestIssueAndSolve(t *testing.T) {
	clk := clock.NewSim(t0)
	var solvedCh *Challenge
	s := newSvc(clk, func(ch *Challenge) { solvedCh = ch })

	ch := s.Issue("m-1", rcpt, sendr)
	if ch.Token == "" || ch.solved() || ch.Visits > 0 {
		t.Fatalf("fresh challenge state wrong: %+v", ch)
	}
	if !ch.Created.Equal(t0) {
		t.Fatalf("Created = %v", ch.Created)
	}
	if want := fmt.Sprintf("What is %d plus %d? (digits only)", ch.a, ch.b); ch.question() != want {
		t.Fatalf("question = %q, want %q", ch.question(), want)
	}
	if ch.a < 10 || ch.a > 99 || ch.b < 1 || ch.b > 9 {
		t.Fatalf("operands %d, %d out of range", ch.a, ch.b)
	}

	q, err := s.Visit(ch.Token)
	if err != nil || !strings.Contains(q, "plus") {
		t.Fatalf("Visit: %q, %v", q, err)
	}
	ans, err := s.Answer(ch.Token)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(17 * time.Minute)
	if err := s.Solve(ch.Token, ans); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if solvedCh == nil || solvedCh.MsgID != "m-1" {
		t.Fatal("OnSolved callback not invoked")
	}
	if !ch.SolvedAt.Equal(t0.Add(17 * time.Minute)) {
		t.Fatalf("SolvedAt = %v", ch.SolvedAt)
	}
	if ch.Attempts != 1 || ch.Visits != 1 {
		t.Fatalf("attempts=%d visits=%d", ch.Attempts, ch.Visits)
	}
}

func TestWrongAnswerCountsAttempt(t *testing.T) {
	s := newSvc(clock.NewSim(t0), nil)
	ch := s.Issue("m-1", rcpt, sendr)
	if err := s.Solve(ch.Token, "999999"); !errors.Is(err, errWrongAnswer) {
		t.Fatalf("err = %v, want errWrongAnswer", err)
	}
	ans, _ := s.Answer(ch.Token)
	if err := s.Solve(ch.Token, ans); err != nil {
		t.Fatal(err)
	}
	if ch.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", ch.Attempts)
	}
}

func TestSolveTwice(t *testing.T) {
	solves := 0
	s := newSvc(clock.NewSim(t0), func(*Challenge) { solves++ })
	ch := s.Issue("m-1", rcpt, sendr)
	ans, _ := s.Answer(ch.Token)
	if err := s.Solve(ch.Token, ans); err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(ch.Token, ans); !errors.Is(err, errAlreadySolved) {
		t.Fatalf("second solve err = %v", err)
	}
	if solves != 1 {
		t.Fatalf("OnSolved ran %d times, want 1", solves)
	}
}

func TestAnswerWhitespaceTolerant(t *testing.T) {
	s := newSvc(clock.NewSim(t0), nil)
	ch := s.Issue("m-1", rcpt, sendr)
	ans, _ := s.Answer(ch.Token)
	if err := s.Solve(ch.Token, "  "+ans+" \n"); err != nil {
		t.Fatalf("whitespace-padded answer rejected: %v", err)
	}
}

func TestAttemptLockout(t *testing.T) {
	clk := clock.NewSim(t0)
	s := NewService(Config{Clock: clk, Seed: 9})
	// Four wrong answers leave the fifth free to solve.
	early := s.Issue("m-0", rcpt, sendr)
	for i := 0; i < maxAttempts-1; i++ {
		if err := s.Solve(early.Token, "wrong"); !errors.Is(err, errWrongAnswer) {
			t.Fatalf("attempt %d err = %v", i+1, err)
		}
	}
	if ans, _ := s.Answer(early.Token); s.Solve(early.Token, ans) != nil {
		t.Fatal("fifth attempt with the right answer refused")
	}
	ch := s.Issue("m-1", rcpt, sendr)
	for i := 0; i < 5; i++ {
		if err := s.Solve(ch.Token, "wrong"); !errors.Is(err, errWrongAnswer) {
			t.Fatalf("attempt %d err = %v", i+1, err)
		}
	}
	// Sixth attempt — even with the right answer — is locked out.
	ans, _ := s.Answer(ch.Token)
	if err := s.Solve(ch.Token, ans); !errors.Is(err, errLocked) {
		t.Fatalf("locked solve err = %v", err)
	}
	if ch.solved() {
		t.Fatal("locked challenge marked solved")
	}
	if ch.Attempts != 5 {
		t.Fatalf("attempts = %d, want capped at 5", ch.Attempts)
	}
}

func TestExpiry(t *testing.T) {
	clk := clock.NewSim(t0)
	s := NewService(Config{Clock: clk, TTL: 30 * 24 * time.Hour, Seed: 1})
	ch := s.Issue("m-1", rcpt, sendr)
	// The challenge expires TTL after it was issued, and not before.
	clk.Advance(30 * 24 * time.Hour)
	if _, err := s.Visit(ch.Token); err != nil {
		t.Fatalf("Visit at the TTL: %v", err)
	}
	clk.Advance(time.Nanosecond)
	if _, err := s.Visit(ch.Token); !errors.Is(err, errExpired) {
		t.Fatalf("Visit after expiry err = %v", err)
	}
	if err := s.Solve(ch.Token, "1"); !errors.Is(err, errExpired) {
		t.Fatalf("Solve after expiry err = %v", err)
	}
}

func TestUnknownToken(t *testing.T) {
	s := newSvc(clock.NewSim(t0), nil)
	if _, err := s.Visit("tok-nope"); !errors.Is(err, errUnknownToken) {
		t.Fatalf("err = %v", err)
	}
}

func TestDrop(t *testing.T) {
	s := newSvc(clock.NewSim(t0), nil)
	ch := s.Issue("m-1", rcpt, sendr)
	other := s.Issue("m-2", rcpt, sendr)
	s.Drop(ch)
	if _, err := s.Visit(ch.Token); !errors.Is(err, errUnknownToken) {
		t.Fatal("token survives Drop")
	}
	s.Drop(ch) // a second drop is a no-op
	if _, err := s.Visit(other.Token); err != nil {
		t.Fatalf("Drop removed another challenge: %v", err)
	}
	if len(s.byTok) != 1 {
		t.Fatalf("%d live tokens, want 1", len(s.byTok))
	}
}

func TestURL(t *testing.T) {
	s := newSvc(clock.NewSim(t0), nil)
	if got := s.URL("http://cr.example:8080/", "tok-1"); got != "http://cr.example:8080/challenge/tok-1" {
		t.Fatalf("URL = %q", got)
	}
}

func TestDeterministicPuzzles(t *testing.T) {
	s1 := NewService(Config{Clock: clock.NewSim(t0), Seed: 7})
	s2 := NewService(Config{Clock: clock.NewSim(t0), Seed: 7})
	c1 := s1.Issue("m-1", rcpt, sendr)
	c2 := s2.Issue("m-1", rcpt, sendr)
	if c1.question() != c2.question() || c1.Token != c2.Token {
		t.Fatal("equal seeds produced different challenges")
	}
}

func TestHTTPHandlerFlow(t *testing.T) {
	clk := clock.NewSim(t0)
	solved := false
	s := newSvc(clk, func(*Challenge) { solved = true })
	ch := s.Issue("m-1", rcpt, sendr)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// GET shows the puzzle and records a visit.
	resp, err := http.Get(srv.URL + "/challenge/" + ch.Token)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "plus") {
		t.Fatalf("GET status=%d body=%q", resp.StatusCode, body)
	}
	if ch.Visits != 1 {
		t.Fatalf("Visits = %d after GET", ch.Visits)
	}

	// POST wrong answer: 403.
	resp, err = http.PostForm(srv.URL+"/challenge/"+ch.Token, url.Values{"answer": {"0"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("wrong answer status = %d", resp.StatusCode)
	}

	// POST right answer: 200 + callback.
	ans, _ := s.Answer(ch.Token)
	resp, err = http.PostForm(srv.URL+"/challenge/"+ch.Token, url.Values{"answer": {ans}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !solved {
		t.Fatalf("solve status = %d solved=%v", resp.StatusCode, solved)
	}
}

// TestHTTPHandlerPageOutlivesDrop: the page shows the challenge as the
// visit found it, even when the visit callback drops the challenge before
// the page is written.
func TestHTTPHandlerPageOutlivesDrop(t *testing.T) {
	var s *Service
	s = NewService(Config{Clock: clock.NewSim(t0), Seed: 42, OnVisit: func(ch *Challenge) { s.Drop(ch) }})
	ch := s.Issue("m-1", rcpt, sendr)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/challenge/" + ch.Token)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), rcpt.String()) ||
		!strings.Contains(string(body), ch.question()) {
		t.Fatalf("GET status=%d body=%q", resp.StatusCode, body)
	}
	if _, err := s.Visit(ch.Token); !errors.Is(err, errUnknownToken) {
		t.Fatalf("second visit err = %v, want errUnknownToken", err)
	}
}

func TestHTTPHandlerErrors(t *testing.T) {
	clk := clock.NewSim(t0)
	s := newSvc(clk, nil)
	ch := s.Issue("m-1", rcpt, sendr)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/challenge/tok-missing"); code != http.StatusNotFound {
		t.Fatalf("unknown token status = %d", code)
	}
	if code := get("/challenge/"); code != http.StatusNotFound {
		t.Fatalf("empty token status = %d", code)
	}
	if code := get("/challenge/a/b"); code != http.StatusNotFound {
		t.Fatalf("slash token status = %d", code)
	}

	// Method not allowed.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/challenge/"+ch.Token, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}

	// Expired challenge: 410 Gone.
	clk.Advance(31 * 24 * time.Hour)
	if code := get("/challenge/" + ch.Token); code != http.StatusGone {
		t.Fatalf("expired status = %d", code)
	}
}

func TestHTTPHandlerLockout(t *testing.T) {
	clk := clock.NewSim(t0)
	s := NewService(Config{Clock: clk, Seed: 3})
	ch := s.Issue("m-1", rcpt, sendr)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	postAnswer := func(ans string) int {
		resp, err := http.PostForm(srv.URL+"/challenge/"+ch.Token, url.Values{"answer": {ans}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < maxAttempts; i++ {
		if code := postAnswer("wrong"); code != http.StatusForbidden {
			t.Fatalf("attempt %d = %d", i+1, code)
		}
	}
	// Locked: even the correct answer is 429 now.
	ans, _ := s.Answer(ch.Token)
	if code := postAnswer(ans); code != http.StatusTooManyRequests {
		t.Fatalf("locked attempt = %d, want 429", code)
	}
}

func TestConcurrentSolves(t *testing.T) {
	var solves atomic.Int64
	s := newSvc(clock.NewSim(t0), func(*Challenge) { solves.Add(1) })
	var tokens []string
	for i := 0; i < 32; i++ {
		ch := s.Issue(fmt.Sprintf("m-%d", i), rcpt, sendr)
		tokens = append(tokens, ch.Token)
	}
	var wg sync.WaitGroup
	for _, tok := range tokens {
		wg.Add(1)
		go func(tok string) {
			defer wg.Done()
			ans, err := s.Answer(tok)
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Solve(tok, ans); err != nil {
				t.Error(err)
			}
		}(tok)
	}
	wg.Wait()
	if got := solves.Load(); got != 32 {
		t.Fatalf("OnSolved ran %d times, want 32", got)
	}
}

func BenchmarkIssueSolve(b *testing.B) {
	s := newSvc(clock.NewSim(t0), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch := s.Issue(fmt.Sprintf("m-%d", i), rcpt, sendr)
		ans, _ := s.Answer(ch.Token)
		if err := s.Solve(ch.Token, ans); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendTokenMatchesSprintf: the token is the "tok-%08x-%04x" it
// always was, formatted without fmt and without allocating.
func TestAppendTokenMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		r uint32
		n int
	}{{0, 0}, {1, 1}, {0xdeadbeef, 0xabc}, {0xffffffff, 0xffff}, {0x10, 0x10000}, {7, 123456789}} {
		want := fmt.Sprintf("tok-%08x-%04x", c.r, c.n)
		if got := string(appendToken(nil, c.r, c.n)); got != want {
			t.Errorf("appendToken(%#x, %#x) = %q, want %q", c.r, c.n, got, want)
		}
	}
	var buf [32]byte
	if allocs := testing.AllocsPerRun(100, func() { appendToken(buf[:0], 0xdeadbeef, 42) }); allocs != 0 {
		t.Fatalf("appendToken allocates %v times", allocs)
	}
}
