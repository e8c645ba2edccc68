package smtp

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/mail"
)

// Client is a minimal SMTP client used by the CR deployment to deliver
// challenges and outgoing user mail, and by tests to drive the server.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Dial connects to addr (host:port) and consumes the greeting. The
// timeout bounds both the TCP connect and the greeting read, so a peer
// that accepts the connection but never speaks SMTP cannot hang us.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		conn.Close()
		return nil, err
	}
	c, err := NewClient(conn)
	if err != nil {
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (e.g. one side of net.Pipe)
// and consumes the server greeting.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
	if _, err := c.readReply(220); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close closes the underlying connection without QUIT.
func (c *Client) Close() error { return c.conn.Close() }

// cmd sends one command line and expects the given reply code class.
func (c *Client) cmd(wantCode int, format string, args ...interface{}) (*Reply, error) {
	if _, err := fmt.Fprintf(c.bw, format+"\r\n", args...); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return c.readReply(wantCode)
}

// readReply parses a (possibly multi-line) reply. If want > 0 and the
// code differs, the reply is returned as an error.
func (c *Client) readReply(want int) (*Reply, error) {
	var code int
	var texts []string
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if len(line) < 4 {
			return nil, fmt.Errorf("smtp: short reply %q", line)
		}
		n, err := strconv.Atoi(line[:3])
		if err != nil {
			return nil, fmt.Errorf("smtp: bad reply code in %q", line)
		}
		code = n
		texts = append(texts, line[4:])
		if line[3] == ' ' {
			break
		}
		if line[3] != '-' {
			return nil, fmt.Errorf("smtp: bad reply separator in %q", line)
		}
	}
	r := &Reply{Code: code, Text: strings.Join(texts, "\n")}
	if want > 0 && code != want {
		return r, r
	}
	return r, nil
}

// Hello sends EHLO, falling back to HELO.
func (c *Client) Hello(domain string) error {
	r, err := c.cmd(0, "EHLO %s", domain)
	if err != nil || r.Code == 250 {
		return err
	}
	_, err = c.cmd(250, "HELO %s", domain)
	return err
}

// Mail starts a transaction. A zero Address sends the null reverse-path.
func (c *Client) Mail(from mail.Address) error {
	_, err := c.cmd(250, "MAIL FROM:%s", bracket(from))
	return err
}

// Rcpt adds a recipient.
func (c *Client) Rcpt(to mail.Address) error {
	_, err := c.cmd(250, "RCPT TO:%s", bracket(to))
	return err
}

// Data sends the message body (CRLF line endings added as needed, lines
// dot-stuffed) and completes the transaction.
func (c *Client) Data(body string) error {
	if _, err := c.cmd(354, "DATA"); err != nil {
		return err
	}
	for _, line := range strings.Split(strings.ReplaceAll(body, "\r\n", "\n"), "\n") {
		if strings.HasPrefix(line, ".") {
			line = "." + line // dot-stuffing
		}
		if _, err := fmt.Fprintf(c.bw, "%s\r\n", line); err != nil {
			return err
		}
	}
	if _, err := c.bw.WriteString(".\r\n"); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	_, err := c.readReply(250)
	return err
}

// Quit ends the session politely and closes the connection.
func (c *Client) Quit() error {
	_, err := c.cmd(221, "QUIT")
	c.conn.Close()
	return err
}

// Reset aborts the current transaction.
func (c *Client) Reset() error {
	_, err := c.cmd(250, "RSET")
	return err
}

// SendMail is the convenience path: one transaction delivering body from
// from to every rcpt.
func (c *Client) SendMail(from mail.Address, rcpts []mail.Address, body string) error {
	if err := c.Mail(from); err != nil {
		return err
	}
	for _, r := range rcpts {
		if err := c.Rcpt(r); err != nil {
			return err
		}
	}
	return c.Data(body)
}

func bracket(a mail.Address) string {
	if a.IsNull() {
		return "<>"
	}
	return "<" + a.String() + ">"
}

// BuildMessage renders a simple RFC 5322 message with the given fields,
// suitable for Client.Data.
func BuildMessage(from, to mail.Address, subject, body string) string {
	h := mail.NewHeaders()
	h.Set("From", from.String())
	h.Set("To", to.String())
	h.Set("Subject", subject)
	h.Set("MIME-Version", "1.0")
	h.Set("Content-Type", "text/plain; charset=utf-8")
	return h.Render() + body
}
