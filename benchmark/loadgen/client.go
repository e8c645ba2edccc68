package loadgen

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"time"
)

// Client is one SMTP connection of the load generator. It behaves like
// a production sending MTA: EHLO, the whole envelope pipelined in one
// write (RFC 2920), SIZE= on MAIL, RSET after a refused recipient, and
// a fresh connection every ReconnectEvery transactions.
type Client struct {
	// Addr is the server's host:port.
	Addr string
	// ReconnectEvery is the number of transactions per connection;
	// 0 keeps one connection for the whole run.
	ReconnectEvery int

	conn     net.Conn
	br       *bufio.Reader
	cmd      []byte
	onConn   int
	needRset bool
	// Dials counts connections opened.
	Dials int
}

const ioTimeout = 30 * time.Second

// Connect dials the server and completes the EHLO handshake.
func (c *Client) Connect() error {
	conn, err := net.DialTimeout("tcp", c.Addr, ioTimeout)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReaderSize(conn, 4096)
	c.onConn, c.needRset = 0, false
	c.Dials++
	if code, err := c.readReply(); err != nil || code != 220 {
		c.Close()
		return fmt.Errorf("greeting: code %d: %v", code, err)
	}
	if _, err := conn.Write([]byte("EHLO loadgen.example.com\r\n")); err != nil {
		c.Close()
		return err
	}
	if code, err := c.readReply(); err != nil || code != 250 {
		c.Close()
		return fmt.Errorf("EHLO: code %d: %v", code, err)
	}
	return nil
}

// Close says QUIT (best effort) and drops the connection.
func (c *Client) Close() {
	if c.conn == nil {
		return
	}
	_ = c.conn.SetDeadline(time.Now().Add(time.Second))
	if _, err := c.conn.Write([]byte("QUIT\r\n")); err == nil {
		_, _ = c.readReply()
	}
	c.conn.Close()
	c.conn = nil
}

// readReply reads one possibly multi-line reply and returns its code.
func (c *Client) readReply() (int, error) {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) < 4 {
			return 0, fmt.Errorf("short reply %q", line)
		}
		code, err := strconv.Atoi(string(line[:3]))
		if err != nil {
			return 0, fmt.Errorf("bad reply %q", line)
		}
		if line[3] != '-' {
			return code, nil
		}
	}
}

// Do runs one transaction and returns the reply that decided it: the
// first refusal, or the reply to the message body. The latency runs
// from from — or, when from is zero, from just before MAIL is written —
// until that final reply has been read, so in an open loop a
// transaction that could not start on time can be charged its wait.
func (c *Client) Do(tx *Tx, from time.Time) (code int, lat time.Duration, err error) {
	if c.conn == nil || (c.ReconnectEvery > 0 && c.onConn >= c.ReconnectEvery) {
		c.Close()
		if err := c.Connect(); err != nil {
			return 0, 0, err
		}
	}
	start := from
	if start.IsZero() {
		start = time.Now()
	}
	code, err = c.exchange(tx)
	if err != nil {
		c.conn.Close()
		c.conn = nil
		return 0, 0, err
	}
	c.onConn++
	return code, time.Since(start), nil
}

func (c *Client) exchange(tx *Tx) (int, error) {
	if err := c.conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, err
	}
	b := c.cmd[:0]
	replies := 3
	if c.needRset {
		b = append(b, "RSET\r\n"...)
		replies++
	}
	b = append(b, "MAIL FROM:<"...)
	b = append(b, tx.From...)
	b = append(b, "> SIZE="...)
	b = strconv.AppendInt(b, int64(len(tx.Body)), 10)
	b = append(b, "\r\nRCPT TO:<"...)
	b = append(b, tx.Rcpt...)
	b = append(b, ">\r\nDATA\r\n"...)
	c.cmd = b
	if _, err := c.conn.Write(b); err != nil {
		return 0, err
	}
	var codes [4]int
	for i := 0; i < replies; i++ {
		code, err := c.readReply()
		if err != nil {
			return 0, err
		}
		codes[i] = code
	}
	got := codes[replies-3:]
	c.needRset = false
	switch {
	case got[0] != 250:
		return got[0], nil // MAIL refused: no transaction was opened
	case got[1] != 250:
		c.needRset = true // MAIL stands, RCPT refused: clear it before the next MAIL
		return got[1], nil
	case got[2] != 354:
		c.needRset = true
		return got[2], nil
	}
	if _, err := c.conn.Write(tx.Body); err != nil {
		return 0, err
	}
	return c.readReply()
}
