package logscan

import (
	"testing"

	"repro/internal/maillog"
)

// TestFlushPublishesLines: the -progress heartbeat reads Counters while
// the scan runs, so a periodic flush must publish lines and bad lines,
// not only events and bytes.
func TestFlushPublishesLines(t *testing.T) {
	var c Counters
	tl := newTally(&Options{Counter: &c})
	d := NewDecoder()
	var e maillog.Event
	tl.line(d, &e, []byte("garbage\n"))
	for i := 0; i < flushEvery; i++ {
		tl.line(d, &e, []byte("2010-07-01T10:00:00Z corp web-solve\n"))
	}
	if got := c.BadLines.Load(); got != 1 {
		t.Errorf("mid-scan BadLines = %d, want 1", got)
	}
	if got := c.Lines.Load(); got != flushEvery+1 {
		t.Errorf("mid-scan Lines = %d, want %d", got, flushEvery+1)
	}
	if got := c.Events.Load(); got != flushEvery {
		t.Errorf("mid-scan Events = %d, want %d", got, flushEvery)
	}
}
