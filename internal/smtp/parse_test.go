package smtp

import (
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/mail"
)

func TestSplitVerb(t *testing.T) {
	cases := []struct {
		line, verb, args string
	}{
		{"HELO example.com", "HELO", "example.com"},
		{"helo example.com", "HELO", "example.com"},
		{"QUIT", "QUIT", ""},
		{"MAIL FROM:<a@b.example>  ", "MAIL", "FROM:<a@b.example>"},
		{"", "", ""},
	}
	for _, c := range cases {
		verb, args := splitVerb([]byte(c.line))
		if string(verb) != c.verb || string(args) != c.args {
			t.Errorf("splitVerb(%q) = %q, %q; want %q, %q", c.line, verb, args, c.verb, c.args)
		}
	}
}

func TestParsePath(t *testing.T) {
	cases := []struct {
		args, prefix string
		path, params string
		ok           bool
	}{
		{"FROM:<a@b.example>", "FROM", "<a@b.example>", "", true},
		{"from:<a@b.example>", "FROM", "<a@b.example>", "", true},
		{"FROM: <a@b.example>", "FROM", "<a@b.example>", "", true},
		{"FROM:<a@b.example> SIZE=1000 BODY=8BITMIME", "FROM", "<a@b.example>", "SIZE=1000 BODY=8BITMIME", true},
		{"FROM:<>", "FROM", "<>", "", true},
		{"TO:<bob@corp.example>", "TO", "<bob@corp.example>", "", true},
		{"TO <bob@corp.example>", "TO", "", "", false}, // missing colon
		{"RCPT:<x@y.example>", "FROM", "", "", false},  // wrong prefix
	}
	for _, c := range cases {
		path, params, ok := parsePath(c.args, c.prefix)
		if ok != c.ok || path != c.path || params != c.params {
			t.Errorf("parsePath(%q, %q) = %q, %q, %v; want %q, %q, %v",
				c.args, c.prefix, path, params, ok, c.path, c.params, c.ok)
		}
	}
}

func TestParamInt(t *testing.T) {
	cases := []struct {
		params string
		n      int
		ok     bool
	}{
		{"SIZE=12345 BODY=8BITMIME", 12345, true},
		{"size=99", 99, true},
		{"BODY=8BITMIME", 0, true}, // absent: no declaration
		{"", 0, true},
		{"SIZE=0", 0, true},
		{"SIZE=abc", 0, false},
		{"SIZE=-5", 0, false},
		{"SIZE=+5", 0, false},
		{"SIZE=", 0, false},
		{"SIZE", 0, false},
		{"SIZE=99999999999999999999", 0, false},
		{"BODY=8BITMIME SIZE=1x", 0, false},
	}
	for _, c := range cases {
		if n, ok := paramInt(c.params, "SIZE"); ok != c.ok || (ok && n != c.n) {
			t.Errorf("paramInt(%q) = %d, %v; want %d, %v", c.params, n, ok, c.n, c.ok)
		}
		// A bad value allocates strconv's error; a good one nothing.
		if allocs := testing.AllocsPerRun(20, func() { paramInt(c.params, "SIZE") }); c.ok && allocs != 0 {
			t.Errorf("paramInt(%q) allocates %v times", c.params, allocs)
		}
	}
}

// TestParamIntSplitsLikeFields: parameters split at the white space
// strings.Fields splits at, Unicode spaces and invalid UTF-8 included.
func TestParamIntSplitsLikeFields(t *testing.T) {
	ref := func(params, key string) (int, bool) {
		for _, p := range strings.Fields(params) {
			k, v, _ := strings.Cut(p, "=")
			if strings.EqualFold(k, key) {
				u, err := strconv.ParseUint(v, 10, strconv.IntSize-1)
				return int(u), err == nil
			}
		}
		return 0, true
	}
	for _, params := range []string{
		"  SIZE=5  ", "\tSIZE=7\tBODY=8BITMIME", "BODY=x\u00a0SIZE=9", "SIZE=9\u2003",
		"BODY=\xff\xfeSIZE=3", "\xffSIZE=3 SIZE=4", "X=1\u0085SIZE=12", "SIZE=1\x00",
	} {
		n, ok := paramInt(params, "SIZE")
		wn, wok := ref(params, "SIZE")
		if n != wn || ok != wok {
			t.Errorf("paramInt(%q) = %d, %v; strings.Fields gives %d, %v", params, n, ok, wn, wok)
		}
	}
}

// TestExtractHeadersCopiesFields: the fields outlive the body they were
// read from, which the session overwrites with the next transaction.
func TestExtractHeadersCopiesFields(t *testing.T) {
	buf := []byte("From: A <alice@example.com>\r\nSubject: first\r\nAuto-Submitted: auto-replied\r\n\r\nbody")
	subject, from, autoSub := extractHeaders(unsafe.String(&buf[0], len(buf)))
	for i := range buf {
		buf[i] = 'X'
	}
	if subject != "first" || from.String() != "alice@example.com" || autoSub != "auto-replied" {
		t.Fatalf("after the body was overwritten: subject=%q from=%v auto=%q", subject, from, autoSub)
	}
}

func TestExtractHeaders(t *testing.T) {
	body := "Received: from x\r\n" +
		"From: Alice Doe <alice@example.com>\r\n" +
		"Subject: the subject line\r\n" +
		"\r\n" +
		"Subject: not this one (body)\r\n"
	subject, from, autoSub := extractHeaders(body)
	if subject != "the subject line" {
		t.Fatalf("subject = %q", subject)
	}
	if from.String() != "alice@example.com" {
		t.Fatalf("from = %v", from)
	}
	if autoSub != "" {
		t.Fatalf("auto-submitted = %q for plain mail", autoSub)
	}
}

func TestExtractHeadersAutoSubmitted(t *testing.T) {
	_, _, autoSub := extractHeaders("Auto-Submitted: Auto-Replied\r\nSubject: x\r\n\r\nbody")
	if autoSub != "auto-replied" {
		t.Fatalf("auto-submitted = %q", autoSub)
	}
	if _, _, v := extractHeaders("Auto-Submitted: no\r\n\r\nbody"); v != "" {
		t.Fatalf("Auto-Submitted: no should normalise to empty, got %q", v)
	}
}

func TestExtractHeadersMissing(t *testing.T) {
	subject, from, _ := extractHeaders("no headers at all just a body")
	// The single line is scanned as a header candidate and matches
	// nothing; both stay zero.
	if subject != "" || from != (mail.Address{}) {
		t.Fatalf("subject=%q from=%v", subject, from)
	}
}

func TestExtractHeadersCaseInsensitive(t *testing.T) {
	subject, from, _ := extractHeaders("SUBJECT: shouty\r\nfrom: <a@b.example>\r\n\r\n")
	if subject != "shouty" || from.String() != "a@b.example" {
		t.Fatalf("subject=%q from=%v", subject, from)
	}
}

// TestClientMultilineReply verifies the client reads a multi-line reply
// (which EHLO produces) through its final space-separated line, so the
// next command reads its own reply.
func TestClientMultilineReply(t *testing.T) {
	server, client := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer server.Close()
		buf := make([]byte, 1024)
		// Greeting.
		if _, err := server.Write([]byte("220 test ESMTP\r\n")); err != nil {
			done <- err
			return
		}
		// Read the EHLO command.
		if _, err := server.Read(buf); err != nil {
			done <- err
			return
		}
		if _, err := server.Write([]byte("250-test greets you\r\n250-SIZE 1000\r\n250-PIPELINING\r\n250 HELP\r\n")); err != nil {
			done <- err
			return
		}
		// Read MAIL and refuse it.
		if _, err := server.Read(buf); err != nil {
			done <- err
			return
		}
		_, err := server.Write([]byte("550 5.7.1 sender refused\r\n"))
		done <- err
	}()

	c, err := NewClient(client)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("client.example"); err != nil {
		t.Fatal(err)
	}
	// Had the client stopped before "250 HELP", MAIL would read that
	// line as its 250 and succeed.
	if err := c.Mail(mail.MustParseAddress("a@b.example")); err == nil || !strings.Contains(err.Error(), "550") {
		t.Fatalf("MAIL after a multi-line EHLO = %v, want the 550", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestClientBadReplies verifies malformed server replies error cleanly.
func TestClientBadReplies(t *testing.T) {
	for _, greeting := range []string{
		"22\r\n",        // short
		"abc hello\r\n", // non-numeric
		"250?weird\r\n", // bad separator
	} {
		server, client := net.Pipe()
		go func(g string) {
			server.Write([]byte(g)) //nolint:errcheck
			server.Close()
		}(greeting)
		if _, err := NewClient(client); err == nil {
			t.Errorf("greeting %q accepted", greeting)
		}
	}
}

// TestServeConnOverPipe drives a full session over net.Pipe (no TCP),
// proving the server only needs a net.Conn.
func TestServeConnOverPipe(t *testing.T) {
	backend := newBackend()
	srv := NewServer(Config{Hostname: "pipe.example", ReadTimeout: 2 * time.Second}, backend)
	server, client := net.Pipe()
	go srv.ServeConn(server)

	c, err := NewClient(client)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("pipeclient.example"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendMail(alice, []mail.Address{bob}, "Subject: over a pipe\r\n\r\nhello"); err != nil {
		t.Fatal(err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
	msgs := backend.messages()
	if len(msgs) != 1 || msgs[0].Subject != "over a pipe" {
		t.Fatalf("pipe delivery failed: %+v", msgs)
	}
}

func TestReplyTemporary(t *testing.T) {
	if !(&Reply{451, "x"}).Temporary() {
		t.Fatal("451 not temporary")
	}
	if (&Reply{550, "x"}).Temporary() {
		t.Fatal("550 temporary")
	}
	if got := (&Reply{550, "no such user"}).Error(); got != "550 no such user" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestBracket(t *testing.T) {
	if bracket(mail.Null) != "<>" {
		t.Fatal("null bracket wrong")
	}
	if bracket(alice) != "<alice@example.com>" {
		t.Fatalf("bracket = %q", bracket(alice))
	}
}

func TestCutPrefixFold(t *testing.T) {
	if rest, ok := cutPrefixFold("FROM:<x>", "from"); !ok || rest != ":<x>" {
		t.Fatalf("cutPrefixFold = %q, %v", rest, ok)
	}
	if _, ok := cutPrefixFold("FR", "FROM"); ok {
		t.Fatal("short string matched")
	}
}
