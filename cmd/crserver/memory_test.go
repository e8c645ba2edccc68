package main

import (
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mail"
)

// liveBytesPerGrayServer bounds the live heap crserver keeps per gray
// message on TestLiveHeapPerGrayServer's workload, across the whole
// mail path build wires: the message as the SMTP session hands it over,
// the engine's quarantine record and indexes, the CAPTCHA challenge,
// the sender's reputation entry, the spool record the outbound queue
// journals, and what the WAL and the body store keep. With the spool's
// compact record, the hashed pending-pair index and the challenge's
// int64 times, it measures 970 B. Before them it measured 1304 B. The
// bound is 970 B plus 15 %.
const liveBytesPerGrayServer = 1116

// TestLiveHeapPerGrayServer delivers gray messages from new senders to
// a server built as main builds it, with a WAL and an outbound queue
// that is never flushed, and bounds the heap it keeps per message: the
// layer crbench's live_gray_flood measures rss_kb_per_op on.
func TestLiveHeapPerGrayServer(t *testing.T) {
	const n, users = 20000, 50
	var names []string
	for i := 0; i < users; i++ {
		names = append(names, "user"+strconv.Itoa(i))
	}
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	s, err := build(options{
		httpAddr:  ":8080",
		domain:    "corp.example",
		users:     strings.Join(names, ","),
		permitAll: true,
		smarthost: "127.0.0.1:1",
		walDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.walLog.Close()
	body := []byte(strings.Repeat("x", 4<<10))
	deliver := func(i int) {
		// What an SMTP session hands the backend: a fresh message whose
		// addresses and subject are its own, with the DATA buffer's body.
		from := mail.Address{Local: "new" + strconv.Itoa(i), Domain: "example.com"}
		msg := &mail.Message{
			ID:           mail.NewID("smtp"),
			EnvelopeFrom: from,
			Rcpt:         mail.Address{Local: names[i%users], Domain: "corp.example"},
			Subject:      "benchmark message " + strconv.Itoa(i),
			Size:         len(body),
			Body:         string(body),
			ClientIP:     "127.0.0.1",
			HeloDomain:   "loadgen.example",
			Received:     time.Now(),
		}
		if r := s.backend.Deliver(msg); r != nil {
			t.Fatalf("message %d: %v", i, r)
		}
	}
	deliver(n) // the first message sizes what every later one shares
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		deliver(i)
	}
	if err := s.walLog.Sync(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	m := s.eng.Metrics()
	if m.ChallengesSent != n+1 || s.queue.SpoolDepth() != n+1 {
		t.Fatalf("%d challenges sent, %d in the spool; want %d", m.ChallengesSent, s.queue.SpoolDepth(), n+1)
	}
	perMsg := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%d gray messages, %.0f B/message", n, perMsg)
	if perMsg > liveBytesPerGrayServer {
		t.Fatalf("crserver holds %.0f B per gray message, bound %d", perMsg, liveBytesPerGrayServer)
	}
	runtime.KeepAlive(s)
}
