// Package smtp implements the RFC 5321 mail-transfer layer of the CR
// deployment: the server that fronts the MTA-IN and a client used to send
// challenges and user mail.
//
// The implementation is deliberately a subset: HELO/EHLO, MAIL, RCPT,
// DATA (with dot-stuffing), RSET, NOOP, VRFY and QUIT, plus the SIZE
// extension — the commands the product's mail path exercises. The server
// delegates policy to a Backend so internal/core supplies the acceptance
// decisions (including per-recipient 550s for unknown users, which is how
// the study's MTA-INs rejected 62.36% of traffic).
package smtp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"repro/internal/mail"
)

// Reply is an SMTP status reply.
type Reply struct {
	Code int
	Text string
}

// Error returns the reply as "code text" — Reply doubles as the error
// type backends use to reject commands.
func (r *Reply) Error() string { return fmt.Sprintf("%d %s", r.Code, r.Text) }

// Temporary reports whether the reply is a 4xx transient failure.
func (r *Reply) Temporary() bool { return r.Code >= 400 && r.Code < 500 }

// Standard replies.
var (
	replyBadSequence   = &Reply{503, "bad sequence of commands"}
	replySyntax        = &Reply{501, "syntax error in parameters"}
	replyUnknown       = &Reply{500, "command not recognized"}
	replyLineTooLong   = &Reply{500, "line too long"}
	replyOK            = &Reply{250, "OK"}
	replyStartData     = &Reply{354, "start mail input; end with <CRLF>.<CRLF>"}
	replyBye           = &Reply{221, "closing connection"}
	replyCannotVerify  = &Reply{252, "cannot VRFY user, but will accept message"}
	replyTooBig        = &Reply{552, "message size exceeds fixed maximum"}
	replyNoValidRcpts  = &Reply{554, "no valid recipients"}
	replyMailboxSyntax = &Reply{553, "mailbox name not allowed"}
)

// Backend supplies the policy decisions for a Server. Methods return nil
// to accept or a *Reply to reject with that status. Implementations must
// be safe for concurrent use.
type Backend interface {
	// ValidateSender is called at MAIL FROM with the parsed reverse-path.
	ValidateSender(from mail.Address) *Reply
	// ValidateRcpt is called at each RCPT TO.
	ValidateRcpt(from, rcpt mail.Address) *Reply
	// Deliver is called once per accepted recipient after DATA completes.
	// The message carries that recipient in Rcpt. Its Body is borrowed:
	// it aliases the session's DATA buffer, which the next transaction
	// overwrites, so it is valid only until Deliver returns. A backend
	// that keeps the body keeps a copy.
	Deliver(msg *mail.Message) *Reply
}

// Config parameterises a Server.
type Config struct {
	// Hostname is announced in the greeting and HELO replies.
	Hostname string
	// MaxMessageBytes caps DATA size (advertised via SIZE). 0 = 10 MiB.
	MaxMessageBytes int
	// MaxRecipients caps RCPT count per transaction. 0 = 100.
	MaxRecipients int
	// ReadTimeout bounds each wait for the client to send more: a peer
	// silent for this long is disconnected. 0 = 5 minutes.
	ReadTimeout time.Duration
	// Now supplies message receipt timestamps; nil = time.Now.
	Now func() time.Time
}

// Server accepts SMTP connections and feeds accepted mail to a Backend.
type Server struct {
	cfg     Config
	backend Backend

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	conns    map[net.Conn]struct{}
}

// NewServer returns a Server with the given backend.
func NewServer(cfg Config, backend Backend) *Server {
	if cfg.Hostname == "" {
		cfg.Hostname = "mta.invalid"
	}
	if cfg.MaxMessageBytes <= 0 {
		cfg.MaxMessageBytes = 10 << 20
	}
	if cfg.MaxRecipients <= 0 {
		cfg.MaxRecipients = 100
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 5 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Server{cfg: cfg, backend: backend, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on l until Close is called. It always returns
// a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			// Lost the race with shutdown: turn the client away with a
			// tempfail instead of slamming the connection, so it retries.
			fmt.Fprintf(conn, "421 %s service shutting down, try again later\r\n", s.cfg.Hostname)
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.ServeConn(conn)
		}()
	}
}

// Close stops the listener and closes active connections.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
}

// Shutdown drains the server gracefully: it stops accepting new
// connections immediately, then waits up to timeout for in-flight
// sessions to finish their transactions before force-closing whatever
// remains. It returns true if every session ended on its own. Combined
// with a draining admission controller (new DATA payloads get 421),
// this is the SMTP half of the fail-safe drain sequence: a shutdown
// turns deliveries into retries, never losses.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	s.mu.Unlock()

	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return false
}

const (
	// maxCommandLine caps a command line, line ending included. RFC 5321
	// §4.5.3.1.4 requires at least 512; the rest is room for MAIL
	// parameters. DATA lines are not capped: they count against
	// MaxMessageBytes instead.
	maxCommandLine = 1024
	// readBufSize is the session's read buffer. It must exceed
	// maxCommandLine so a legal command always fits.
	readBufSize = 4096
	// maxBodyReserve is the most a transaction's SIZE= may reserve for the
	// body before the bytes arrive: the value is the peer's claim, not a
	// fact, so a session never holds more than this on its say-so. It is
	// also the largest DATA buffer a session keeps between transactions.
	maxBodyReserve = 64 << 10
)

// session is the per-connection state machine.
//
// It touches the network in exactly one place, fill, and only when the
// read buffer holds no complete line: replies accumulate in bw until
// then, so a pipelined group of commands is answered in one write.
type session struct {
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer
	// buf[r:w] is what has been read from conn and not yet consumed.
	buf    []byte
	r, w   int
	remote string // client IP (dotted quad)

	helo string
	from mail.Address
	// gotFrom distinguishes "MAIL FROM:<>" (null sender, legal) from
	// "no MAIL yet".
	gotFrom bool
	// size is the transaction's SIZE= declaration, 0 when absent.
	size  int
	rcpts []mail.Address
	// body is the DATA buffer every transaction of the session reuses;
	// the Body a Backend receives aliases it.
	body []byte
}

// ServeConn runs one SMTP session on conn. Exposed so tests and the
// in-memory transport can drive sessions over net.Pipe.
func (s *Server) ServeConn(conn net.Conn) {
	sess := &session{
		srv:  s,
		conn: conn,
		bw:   bufio.NewWriter(conn),
		buf:  make([]byte, readBufSize),
	}
	if addr, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		sess.remote = addr.IP.String()
	} else if host, _, err := net.SplitHostPort(conn.RemoteAddr().String()); err == nil {
		sess.remote = host
	}
	sess.run()
	// Whatever ended the session, the replies it still owes (221 after
	// QUIT) go out; on a dead connection this fails at once.
	_ = sess.bw.Flush()
}

// fill blocks until the client has sent more, appending it to buf. It is
// the session's only network round: pending replies are flushed first (RFC
// 2920 §3.2: before waiting, not per command), and the idle deadline is
// armed once for the read. Callers consume every complete line before
// calling it and leave less than a buffer's worth unread.
func (s *session) fill() error {
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if s.r > 0 {
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
	}
	if err := s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.ReadTimeout)); err != nil {
		return err
	}
	n, err := s.conn.Read(s.buf[s.w:])
	s.w += n
	if n > 0 {
		return nil // a read may deliver bytes and an error; the error repeats
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// reply queues a single-line reply; fill or the end of the session sends
// it. bufio.Writer keeps the first write error and reports it from Flush.
func (s *session) reply(r *Reply) { s.replyLine(r.Code, ' ', r.Text) }

func (s *session) replyLines(code int, lines ...string) {
	for i, l := range lines {
		sep := byte('-')
		if i == len(lines)-1 {
			sep = ' '
		}
		s.replyLine(code, sep, l)
	}
}

func (s *session) replyLine(code int, sep byte, text string) {
	b := strconv.AppendInt(s.bw.AvailableBuffer(), int64(code), 10)
	b = append(b, sep)
	b = append(b, text...)
	b = append(b, '\r', '\n')
	_, _ = s.bw.Write(b)
}

var errLineTooLong = errors.New("smtp: command line too long")

// readLine returns the next command line without its line ending. The
// slice aliases the read buffer and is valid until the next read. A line
// longer than maxCommandLine is discarded through its LF, in bounded
// memory, and reported as errLineTooLong; the session carries on.
func (s *session) readLine() ([]byte, error) {
	tooLong := false
	for {
		if i := bytes.IndexByte(s.buf[s.r:s.w], '\n'); i >= 0 {
			line := s.buf[s.r : s.r+i]
			s.r += i + 1
			if tooLong || i >= maxCommandLine {
				return nil, errLineTooLong
			}
			return bytes.TrimRight(line, "\r"), nil
		}
		if s.w-s.r >= maxCommandLine {
			tooLong = true
			s.r = s.w
		}
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
}

func (s *session) run() {
	s.replyLine(220, ' ', s.srv.cfg.Hostname+" ESMTP ready")
	for {
		line, err := s.readLine()
		if errors.Is(err, errLineTooLong) {
			s.reply(replyLineTooLong)
			continue
		}
		if err != nil {
			return
		}
		verb, args := splitVerb(line)
		switch string(verb) {
		case "HELO":
			s.reset()
			s.helo = string(args)
			s.replyLine(250, ' ', s.srv.cfg.Hostname)
		case "EHLO":
			s.reset()
			s.helo = string(args)
			s.replyLines(250,
				s.srv.cfg.Hostname+" greets you",
				"SIZE "+strconv.Itoa(s.srv.cfg.MaxMessageBytes),
				"PIPELINING",
				"8BITMIME",
			)
		case "MAIL":
			s.handleMail(string(args))
		case "RCPT":
			s.handleRcpt(string(args))
		case "DATA":
			if err := s.handleData(); err != nil {
				return
			}
		case "RSET":
			s.reset()
			s.reply(replyOK)
		case "NOOP":
			s.reply(replyOK)
		case "VRFY":
			s.reply(replyCannotVerify)
		case "QUIT":
			s.reply(replyBye)
			return
		default:
			s.reply(replyUnknown)
		}
	}
}

func (s *session) reset() {
	s.from = mail.Address{}
	s.gotFrom = false
	s.size = 0
	s.rcpts = s.rcpts[:0]
}

// splitVerb splits a command line into its verb, upper-cased in place,
// and its trimmed arguments. Both alias line.
func splitVerb(line []byte) (verb, args []byte) {
	verb = line
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		verb, args = line[:i], bytes.TrimSpace(line[i+1:])
	}
	for i, c := range verb {
		if 'a' <= c && c <= 'z' {
			verb[i] = c - 'a' + 'A'
		}
	}
	return verb, args
}

// parsePath extracts the address from "FROM:<a@b>" / "TO:<a@b>" syntax,
// tolerating the space variants real clients emit.
func parsePath(args, prefix string) (string, string, bool) {
	rest, ok := cutPrefixFold(args, prefix)
	if !ok {
		return "", "", false
	}
	rest = strings.TrimSpace(rest)
	rest, ok = strings.CutPrefix(rest, ":")
	if !ok {
		return "", "", false
	}
	rest = strings.TrimSpace(rest)
	// Parameters (e.g. SIZE=nnn) follow the path after a space.
	path, params, _ := strings.Cut(rest, " ")
	return path, params, true
}

func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || !strings.EqualFold(s[:len(prefix)], prefix) {
		return s, false
	}
	return s[len(prefix):], true
}

func (s *session) handleMail(args string) {
	if s.helo == "" || s.gotFrom {
		s.reply(replyBadSequence)
		return
	}
	path, params, ok := parsePath(args, "FROM")
	if !ok {
		s.reply(replySyntax)
		return
	}
	addr, err := mail.ParseAddress(path)
	if err != nil {
		s.reply(replyMailboxSyntax)
		return
	}
	size, ok := paramInt(params, "SIZE")
	if !ok {
		s.reply(replySyntax)
		return
	}
	if size > s.srv.cfg.MaxMessageBytes {
		s.reply(replyTooBig)
		return
	}
	if r := s.srv.backend.ValidateSender(addr); r != nil {
		s.reply(r)
		return
	}
	s.from = addr
	s.gotFrom = true
	s.size = size
	s.reply(replyOK)
}

// paramInt returns the value of key in an ESMTP parameter list, 0 when key
// is absent. ok is false when key is there with anything but an unsigned
// decimal that fits an int.
func paramInt(params, key string) (n int, ok bool) {
	for params != "" {
		// The next field, split at white space as strings.Fields does.
		p := params
		params = ""
		if i := strings.IndexFunc(p, unicode.IsSpace); i >= 0 {
			_, w := utf8.DecodeRuneInString(p[i:])
			p, params = p[:i], p[i+w:]
		}
		if p == "" {
			continue
		}
		k, v, _ := strings.Cut(p, "=")
		if strings.EqualFold(k, key) {
			u, err := strconv.ParseUint(v, 10, strconv.IntSize-1)
			return int(u), err == nil
		}
	}
	return 0, true
}

func (s *session) handleRcpt(args string) {
	if !s.gotFrom {
		s.reply(replyBadSequence)
		return
	}
	if len(s.rcpts) >= s.srv.cfg.MaxRecipients {
		s.reply(&Reply{452, "too many recipients"})
		return
	}
	path, _, ok := parsePath(args, "TO")
	if !ok {
		s.reply(replySyntax)
		return
	}
	addr, err := mail.ParseAddress(path)
	if err != nil || addr.IsNull() {
		s.reply(replyMailboxSyntax)
		return
	}
	if r := s.srv.backend.ValidateRcpt(s.from, addr); r != nil {
		s.reply(r)
		return
	}
	s.rcpts = append(s.rcpts, addr)
	s.reply(replyOK)
}

// handleData returns an error only when the connection failed mid-body.
func (s *session) handleData() error {
	if !s.gotFrom {
		s.reply(replyBadSequence)
		return nil
	}
	if len(s.rcpts) == 0 {
		s.reply(replyNoValidRcpts)
		return nil
	}
	s.reply(replyStartData)
	body, err := s.readData()
	if errors.Is(err, errTooBig) {
		// readData drained to the terminator, so the session survives.
		s.reset()
		s.reply(replyTooBig)
		return nil
	}
	if err != nil {
		return err
	}

	subject, headerFrom, autoSub := extractHeaders(body)
	base := &mail.Message{
		ID:            mail.NewID("smtp"),
		EnvelopeFrom:  s.from,
		HeaderFrom:    headerFrom,
		Subject:       subject,
		Size:          len(body),
		Body:          body,
		ClientIP:      s.remote,
		HeloDomain:    s.helo,
		AutoSubmitted: autoSub,
		Received:      s.srv.cfg.Now(),
	}
	var firstErr *Reply
	delivered := 0
	for _, rcpt := range s.rcpts {
		if r := s.srv.backend.Deliver(base.Clone(rcpt)); r != nil {
			if firstErr == nil {
				firstErr = r
			}
			continue
		}
		delivered++
	}
	s.reset()
	if delivered == 0 && firstErr != nil {
		s.reply(firstErr)
		return nil
	}
	s.replyLine(250, ' ', "OK, delivered to "+strconv.Itoa(delivered)+" recipient(s)")
	return nil
}

var errTooBig = errors.New("smtp: message too large")

// readData consumes a dot-terminated DATA body from the read buffer,
// refilling it as needed, and leaves whatever follows the terminator
// unread. Once the body outgrows MaxMessageBytes it keeps consuming to the
// terminator, storing nothing, and returns errTooBig.
//
// The body is read into the session's DATA buffer and the string returned
// aliases it: it is valid until the next readData. A buffer that grew past
// maxBodyReserve is not kept for the next transaction.
func (s *session) readData() (string, error) {
	d := dataReader{body: s.body[:0], max: s.srv.cfg.MaxMessageBytes}
	if reserve := min(s.size, maxBodyReserve); cap(d.body) < reserve {
		d.body = make([]byte, 0, reserve)
	}
	for {
		n, done := d.feed(s.buf[s.r:s.w])
		s.r += n
		if done {
			s.body = d.body[:0]
			if cap(d.body) > maxBodyReserve {
				s.body = nil
			}
			if d.tooBig {
				return "", errTooBig
			}
			return unsafe.String(unsafe.SliceData(d.body), len(d.body)), nil
		}
		if err := s.fill(); err != nil {
			return "", err
		}
	}
}

// dataReader turns the wire form of a DATA body into the stored one, in
// pieces of any size: a piece may hold many lines and may end anywhere in
// one, so a line longer than the read buffer needs no buffer of its own.
// Per line (RFC 5321 §4.5.2): one leading dot is dropped, a line that is
// only that dot ends the body, trailing CRs and the LF become one CRLF.
type dataReader struct {
	body   []byte
	max    int
	tooBig bool
	// midLine: the previous piece ended inside the current line.
	midLine bool
	// dotOnly: the current line is, so far, a dot followed by CRs only —
	// the terminator if the LF comes next.
	dotOnly bool
	// heldCR counts CRs not yet stored: they are the line ending unless
	// more of the line follows them.
	heldCR int
}

// feed consumes p up to and including the terminator line, if p holds it,
// and reports how much it consumed and whether the body is complete.
func (d *dataReader) feed(p []byte) (n int, done bool) {
	for n < len(p) {
		line := p[n:]
		i := bytes.IndexByte(line, '\n')
		eol := i >= 0
		if eol {
			line = line[:i]
		}
		n += len(line)
		if eol {
			n++
		}
		if !d.midLine {
			d.dotOnly = len(line) > 0 && line[0] == '.'
			if d.dotOnly {
				line = line[1:]
			}
		}
		d.midLine = !eol

		text := bytes.TrimRight(line, "\r")
		if len(text) > 0 {
			d.dotOnly = false
			if d.reserve(d.heldCR + len(text)) {
				for ; d.heldCR > 0; d.heldCR-- {
					d.body = append(d.body, '\r')
				}
				d.body = append(d.body, text...)
			}
			d.heldCR = 0
		}
		d.heldCR += len(line) - len(text)

		if eol {
			if d.dotOnly {
				return n, true
			}
			d.heldCR = 0
			if d.reserve(0) {
				d.body = append(d.body, '\r', '\n')
			}
		}
	}
	return n, false
}

// reserve reports whether k more bytes of the current line may be stored:
// they and the line's CRLF must fit in max. The first time they do not,
// what was stored is dropped and nothing is stored again.
func (d *dataReader) reserve(k int) bool {
	if !d.tooBig && len(d.body)+k+2 > d.max {
		d.tooBig = true
		d.body = d.body[:0]
	}
	return !d.tooBig
}

// extractHeaders pulls Subject, From and Auto-Submitted out of a raw
// message body, reading no further than the header block. Auto-Submitted
// normalises "no" (and absence) to "" so consumers can treat any non-empty
// value as "this is automated mail". The fields are copies: the body is
// borrowed, and the fields may outlive it (a quarantined message's
// Subject rides in its pending challenge).
func extractHeaders(body string) (subject string, headerFrom mail.Address, autoSubmitted string) {
	for body != "" {
		var line string
		line, body, _ = strings.Cut(body, "\r\n")
		if line == "" {
			break // end of headers
		}
		if v, ok := cutHeaderField(line, "Subject"); ok {
			subject = v
		}
		if v, ok := cutHeaderField(line, "From"); ok {
			if a, err := mail.ParseAddress(stripDisplayName(v)); err == nil {
				headerFrom = a
			}
		}
		if v, ok := cutHeaderField(line, "Auto-Submitted"); ok {
			v = strings.ToLower(strings.TrimSpace(v))
			if v != "no" {
				autoSubmitted = v
			}
		}
	}
	headerFrom = mail.Address{Local: strings.Clone(headerFrom.Local), Domain: strings.Clone(headerFrom.Domain)}
	return strings.Clone(subject), headerFrom, strings.Clone(autoSubmitted)
}

func cutHeaderField(line, name string) (string, bool) {
	rest, ok := cutPrefixFold(line, name)
	if !ok {
		return "", false
	}
	rest, ok = strings.CutPrefix(rest, ":")
	if !ok {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// stripDisplayName reduces `Name <a@b>` to `<a@b>`.
func stripDisplayName(v string) string {
	if i := strings.LastIndexByte(v, '<'); i >= 0 {
		if j := strings.IndexByte(v[i:], '>'); j > 0 {
			return v[i : i+j+1]
		}
	}
	return v
}
