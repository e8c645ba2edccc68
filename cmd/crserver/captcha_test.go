package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/adminui"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/mail"
	"repro/internal/mailbox"
	"repro/internal/whitelist"
)

// TestCaptchaLockOverHTTP: the challenge page takes five answers. Five
// wrong ones answer 403, the sixth answer is refused with 429, and from
// then on even the right answer is refused and the message stays
// quarantined: a blind guesser gets five of the 97 possible sums.
func TestCaptchaLockOverHTTP(t *testing.T) {
	clk := clock.Real{}
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.1")
	bob := mail.MustParseAddress("bob@corp.example")
	var challenges []core.OutboundChallenge
	eng := core.New(core.Config{
		Name:             "captcha-lock-test",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, nil, whitelist.NewStore(clk), func(ch core.OutboundChallenge) {
		challenges = append(challenges, ch)
	})
	eng.AddUser(bob)
	inboxes := mailbox.NewStore()
	eng.SetInboxSink(inboxes.Sink())
	web := httptest.NewServer(webMux(eng, adminui.New(eng), inboxes))
	defer web.Close()

	msgID := mail.NewID("gray")
	eng.Receive(&mail.Message{
		ID:           msgID,
		EnvelopeFrom: mail.MustParseAddress("alice@example.com"),
		Rcpt:         bob,
		Subject:      "hello",
		Body:         "hello bob\r\n",
		Size:         100,
		ClientIP:     "192.0.2.1",
		Received:     clk.Now(),
	})
	if len(challenges) != 1 {
		t.Fatalf("challenges = %+v, want one", challenges)
	}
	chURL := web.URL + "/challenge/" + challenges[0].Token
	resp, err := http.Get(chURL)
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	q := regexp.MustCompile(`What is (\d+) plus (\d+)\?`).FindSubmatch(page)
	if q == nil {
		t.Fatalf("no puzzle on the challenge page:\n%s", page)
	}
	x, _ := strconv.Atoi(string(q[1]))
	y, _ := strconv.Atoi(string(q[2]))
	right := strconv.Itoa(x + y)

	post := func(answer string) int {
		t.Helper()
		resp, err := http.PostForm(chURL, url.Values{"answer": {answer}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Every sum lies in 11..107, so 0 is always wrong.
	for i := 1; i <= 5; i++ {
		if code := post("0"); code != http.StatusForbidden {
			t.Fatalf("wrong answer %d = %d, want 403", i, code)
		}
	}
	if code := post("0"); code != http.StatusTooManyRequests {
		t.Fatalf("sixth answer = %d, want 429", code)
	}
	if code := post(right); code != http.StatusTooManyRequests {
		t.Fatalf("right answer after the lock = %d, want 429", code)
	}
	if n := len(inboxes.Inbox(bob)); n != 0 || !eng.Quarantined(msgID) {
		t.Fatalf("bob's inbox holds %d message(s); the locked challenge must keep its message quarantined", n)
	}
}
