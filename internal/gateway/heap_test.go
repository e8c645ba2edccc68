package gateway

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bodystore"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/mail"
	"repro/internal/whitelist"
)

// TestQuarantineKeepsBodiesOffTheHeap quarantines 10,000 messages with
// 4 KB bodies through the gateway, the engine and the disk body store,
// each body borrowed from one reused buffer as an SMTP session lends it.
// The collected heap may grow by at most 1.5 KB per message: everything
// the quarantine keeps but the body.
func TestQuarantineKeepsBodiesOffTheHeap(t *testing.T) {
	const n, bodySize, perMsg = 10000, 4 << 10, 1536
	clk := clock.NewSim(time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC))
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.1")
	bodies := bodystore.New(t.TempDir())
	eng := core.New(core.Config{
		Name:             "heap",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
		Bodies:           bodies,
	}, clk, dns, nil, whitelist.NewStore(clk), func(core.OutboundChallenge) {})
	bob := mail.MustParseAddress("bob@corp.example")
	eng.AddUser(bob)
	b := New(eng)

	buf := []byte("Subject: flood\r\n\r\n" + strings.Repeat("x", bodySize))
	senders := make([]mail.Address, n)
	for i := range senders {
		senders[i] = mail.Address{Local: "s" + strconv.Itoa(i), Domain: "example.com"}
	}
	deliver := func(i int) {
		copy(buf[len(buf)-8:], strconv.Itoa(10000000+i)) // every body differs
		msg := &mail.Message{
			ID:           mail.NewID("heap"),
			EnvelopeFrom: senders[i],
			Rcpt:         bob,
			Subject:      "flood",
			Size:         len(buf),
			Body:         unsafe.String(&buf[0], len(buf)),
			ClientIP:     "192.0.2.1",
			HeloDomain:   "example.com",
			Received:     clk.Now(),
		}
		if r := b.Deliver(msg); r != nil {
			t.Fatalf("message %d: %v", i, r)
		}
	}
	deliver(0) // the body store's tail buffer is allocated once
	before := heapInUse()
	for i := 1; i < n; i++ {
		deliver(i)
	}
	after := heapInUse()
	if q := eng.QuarantineLen(); q != n {
		t.Fatalf("quarantine holds %d messages, want %d", q, n)
	}
	grew := float64(after-before) / (n - 1)
	t.Logf("heap grew %.0f B per quarantined message", grew)
	if grew > perMsg {
		t.Fatalf("heap grew %.0f B per quarantined message, want at most %d", grew, perMsg)
	}
	if st := bodies.Stats(); st.Live != n || st.Errors != 0 {
		t.Fatalf("body store: %+v", st)
	}
	runtime.KeepAlive(eng)
}

// heapInUse returns the live heap after a collection.
func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
