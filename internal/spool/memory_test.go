package spool

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/mail"
)

// liveBytesPerPending bounds the State's live heap per pending item on
// TestLiveHeapPerPendingItem's workload: the record and its slot in the
// pending map. The message ID, token, destination and subject are the
// caller's, which crserver's engine keeps anyway; the URL the caller
// builds is not kept. With the record at 112 bytes it measures 154 B.
// When each item was a whole Item (240 bytes) holding its own copy of
// the URL, it measured 345 B. The bound is 154 B plus 15 %, so a second
// copy of the URL or a record past its size class fails it.
const liveBytesPerPending = 177

// TestLiveHeapPerPendingItem enqueues 20,000 challenges the way crserver
// does, one sender and URL prefix for all, and bounds the heap the State
// keeps for them.
func TestLiveHeapPerPendingItem(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n != 112 {
		t.Fatalf("record is %d bytes, want 112", n)
	}
	const n = 20000
	from := mail.MustParseAddress("challenge@corp.example")
	ids, tokens, to := make([]string, n), make([]string, n), make([]mail.Address, n)
	for i := range ids {
		ids[i] = "smtp-" + strconv.Itoa(100000+i)
		tokens[i] = "tok-" + strconv.FormatUint(uint64(i)*2654435761%(1<<32), 16) + "-" + strconv.Itoa(i)
		to[i] = mail.Address{Local: "s" + strconv.Itoa(i), Domain: "example.com"}
	}
	rec := &Recorder{State: NewState()}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range ids {
		rec.Enqueue(t0, Challenge{
			MsgID:   ids[i],
			Token:   tokens[i],
			From:    from,
			To:      to[i],
			Subject: "flood",
			URL:     "http://localhost:8080/challenge/" + tokens[i],
			Size:    1800,
			Issued:  t0,
		})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ids)
	runtime.KeepAlive(tokens)
	runtime.KeepAlive(to)
	if got := rec.State.Len(); got != n {
		t.Fatalf("%d pending, want %d", got, n)
	}
	perItem := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%d pending items, %.0f B/item", n, perItem)
	if perItem > liveBytesPerPending {
		t.Fatalf("the spool holds %.0f B per pending item, bound %d", perItem, liveBytesPerPending)
	}
}
