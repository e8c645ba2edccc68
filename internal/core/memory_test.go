package core

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/captcha"
	"repro/internal/clock"
	"repro/internal/dnssim"
	"repro/internal/mail"
	"repro/internal/whitelist"
)

// liveBytesPerGray bounds the engine's and the challenge service's live
// heap per challenged gray message on heapGuardGray's workload: the
// quarantine record, its challenge and token, one entry in each of the
// quarantine and token maps, and a slot of the pending-pair index; the
// message itself is the caller's. With the pair index a hash table of
// pointers into the records and the challenge's times in int64, it
// measures 331 B. With the index a map keyed by the two canonical
// addresses and the times as time.Time, it measured 474 B; when the
// challenge also kept its question text, a message-ID map and an
// expiry, and the indexes were a map per recipient and an ID slice per
// pair, 743 B. The bound is 331 B plus 15 %, so a third map entry or a
// second copy of either record fails it.
const liveBytesPerGray = 381

// heapGuardGray returns an engine, with no filter chain and
// no body store, and n gray messages with empty bodies from n distinct
// senders to 20 users.
func heapGuardGray(n int) (*Engine, []*mail.Message) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")
	eng := New(Config{
		Name:             "heap",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, nil, whitelist.NewStore(clk), func(OutboundChallenge) {})
	users := make([]mail.Address, 20)
	for i := range users {
		users[i] = mail.Address{Local: "user" + strconv.Itoa(i), Domain: "corp.example"}
		eng.AddUser(users[i])
	}
	msgs := make([]*mail.Message, n)
	for i := range msgs {
		msgs[i] = &mail.Message{
			ID:           "gray-" + strconv.Itoa(i),
			EnvelopeFrom: mail.Address{Local: "s" + strconv.Itoa(i), Domain: "example.com"},
			Rcpt:         users[i%len(users)],
			Subject:      "flood",
			Size:         1000,
			ClientIP:     "192.0.2.10",
			Received:     t0,
		}
	}
	return eng, msgs
}

// TestLiveHeapPerGrayMessage challenges 20,000 gray messages and bounds
// the heap the engine and its challenge service keep for them, and the
// sizes of the two records each message costs.
func TestLiveHeapPerGrayMessage(t *testing.T) {
	if n := unsafe.Sizeof(quarantined{}); n != 80 {
		t.Fatalf("quarantined is %d bytes, want 80", n)
	}
	if n := unsafe.Sizeof(captcha.Challenge{}); n != 128 {
		t.Fatalf("captcha.Challenge is %d bytes, want 128", n)
	}
	const n = 20000
	eng, msgs := heapGuardGray(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, m := range msgs {
		eng.Receive(m)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(eng)
	if got := eng.Metrics().ChallengesSent; got != n {
		t.Fatalf("%d challenges sent, want %d", got, n)
	}
	perMsg := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%d challenged messages, %.0f B/message", n, perMsg)
	if perMsg > liveBytesPerGray {
		t.Fatalf("engine holds %.0f B per challenged message, bound %d", perMsg, liveBytesPerGray)
	}
}
