package smtp

import (
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the network operations a session issues.
type countingConn struct {
	net.Conn
	reads, writes, deadlines atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// serveCounted runs one session of a server with the given config over
// loopback TCP behind a countingConn and returns a client past the
// greeting. done is closed when ServeConn has returned. The client's I/O
// is bounded, so a server that sits on a reply fails the test instead of
// hanging it.
func serveCounted(t *testing.T, cfg Config, backend Backend) (c *Client, counts *countingConn, done chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *countingConn, 1)
	done = make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		defer conn.Close()
		cc := &countingConn{Conn: conn}
		accepted <- cc
		NewServer(cfg, backend).ServeConn(cc)
	}()
	c, err = Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if counts = <-accepted; counts == nil {
		t.Fatal("accept failed")
	}
	if err := c.Hello("client.example.com"); err != nil {
		t.Fatal(err)
	}
	return c, counts, done
}

// send writes s in one Write, so the test decides what shares a segment.
func send(t *testing.T, c *Client, s string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
}

// expect reads one reply per prefix and requires "code text" to start
// with it, in order.
func expect(t *testing.T, c *Client, prefixes ...string) {
	t.Helper()
	for _, p := range prefixes {
		r, err := c.readReply(0)
		if err != nil {
			t.Fatalf("waiting for %q: %v", p, err)
		}
		if !strings.HasPrefix(r.Error(), p) {
			t.Fatalf("reply %q, want %q…", r.Error(), p)
		}
	}
}

// expectClosed requires the server to drop the connection, having said
// nothing more.
func expectClosed(t *testing.T, c *Client) {
	t.Helper()
	if rest, err := io.ReadAll(c.br); err != nil || len(rest) > 0 {
		t.Fatalf("want a silent disconnect, got %q, %v", rest, err)
	}
}

// TestPipelinedTransactionIO pins the session's I/O contract: replies to a
// pipelined group leave in one write when the server next has to wait, in
// order, and every network read arms the idle deadline exactly once.
func TestPipelinedTransactionIO(t *testing.T) {
	b := newBackend()
	c, counts, done := serveCounted(t, Config{ReadTimeout: 5 * time.Second}, b)

	before := counts.writes.Load()
	send(t, c, "MAIL FROM:<alice@example.com> SIZE=30\r\nRCPT TO:<bob@corp.example>\r\nDATA\r\n")
	expect(t, c, "250 OK", "250 OK", "354 ")
	send(t, c, "Subject: one write\r\n\r\nbody\r\n.\r\n")
	expect(t, c, "250 OK, delivered to 1")
	if got := counts.writes.Load() - before; got != 2 {
		t.Errorf("server issued %d writes for a pipelined transaction, want 2 (250+250+354, then 250)", got)
	}

	send(t, c, "QUIT\r\n")
	expect(t, c, "221 ")
	<-done
	if r, d := counts.reads.Load(), counts.deadlines.Load(); r != d {
		t.Errorf("%d network reads but %d SetReadDeadline calls, want one per read", r, d)
	}
	if msgs := b.messages(); len(msgs) != 1 || msgs[0].Subject != "one write" {
		t.Fatalf("delivered %+v", msgs)
	}
}

// TestPartialCommandGetsEarlierReplies: replies are held back only while
// the buffer holds a complete next command. Half a command is not one, so
// the reply to the command before it must be on the wire before the server
// waits for the other half.
func TestPartialCommandGetsEarlierReplies(t *testing.T) {
	c, _, _ := serveCounted(t, Config{ReadTimeout: 5 * time.Second}, newBackend())
	send(t, c, "NOOP\r\nMAIL FROM:<alice@exa")
	expect(t, c, "250 OK")
	send(t, c, "mple.com>\r\n")
	expect(t, c, "250 OK")
}

func TestStalledClientIsDisconnected(t *testing.T) {
	cfg := Config{ReadTimeout: 50 * time.Millisecond}
	t.Run("mid-command", func(t *testing.T) {
		c, _, done := serveCounted(t, cfg, newBackend())
		send(t, c, "MAIL FROM:<alice@exa")
		expectClosed(t, c)
		<-done
	})
	t.Run("mid-DATA", func(t *testing.T) {
		b := newBackend()
		c, _, done := serveCounted(t, cfg, b)
		send(t, c, "MAIL FROM:<alice@example.com>\r\nRCPT TO:<bob@corp.example>\r\nDATA\r\n")
		expect(t, c, "250 OK", "250 OK", "354 ")
		send(t, c, "Subject: never finished\r\n\r\nhalf a li")
		expectClosed(t, c)
		<-done
		if n := len(b.messages()); n != 0 {
			t.Fatalf("%d message(s) delivered from an unterminated body", n)
		}
	})
}

// TestOversizedCommandLine sends a 4 MiB command with no LF. The session
// must hold none of it, answer 500 once the line finally ends, and go on.
func TestOversizedCommandLine(t *testing.T) {
	c, _, _ := serveCounted(t, Config{ReadTimeout: 5 * time.Second}, newBackend())

	// With the collector off, HeapAlloc only grows: its rise is everything
	// allocated meanwhile, by this test's client side too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	junk := []byte(strings.Repeat("A", 64<<10))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 4<<20/len(junk); i++ {
		if _, err := c.conn.Write(junk); err != nil {
			t.Fatal(err)
		}
	}
	send(t, c, "\r\nNOOP\r\n")
	expect(t, c, "500 line too long", "250 OK")
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<10 {
		t.Errorf("heap grew by %d bytes while a 4 MiB line went by, want it bounded by the read buffer", grew)
	}

	// A line one byte over the cap is refused, one at the cap is not.
	at := "NOOP" + strings.Repeat(" ", maxCommandLine-len("NOOP\r\n")) + "\r\n"
	send(t, c, at+"X"+at)
	expect(t, c, "250 OK", "500 line too long")
}

func TestSizeParameterSyntax(t *testing.T) {
	c, _, _ := serveCounted(t, Config{ReadTimeout: 5 * time.Second}, newBackend())
	send(t, c, "MAIL FROM:<alice@example.com> SIZE=-5\r\n")
	expect(t, c, "501 ")
	send(t, c, "MAIL FROM:<alice@example.com> SIZE=abc\r\n")
	expect(t, c, "501 ")
	send(t, c, "MAIL FROM:<alice@example.com> SIZE=5\r\n")
	expect(t, c, "250 ")
}
