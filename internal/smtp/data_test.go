package smtp

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// refReadData is the DATA reader this package had before the session read
// in pieces: one ReadString and one trimmed string per line. It is the
// definition of what a body is; dataReader must agree with it on every
// input, however the input is cut up.
func refReadData(br *bufio.Reader, max int) (string, error) {
	readLine := func() (string, error) {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		return strings.TrimRight(line, "\r\n"), nil
	}
	var b strings.Builder
	for {
		line, err := readLine()
		if err != nil {
			return "", err
		}
		if line == "." {
			return b.String(), nil
		}
		if strings.HasPrefix(line, ".") {
			line = line[1:] // dot-unstuffing per RFC 5321 §4.5.2
		}
		if b.Len()+len(line)+2 > max {
			// Keep consuming to the terminator so the session survives.
			for {
				l, err := readLine()
				if err != nil {
					return "", err
				}
				if l == "." {
					return "", errTooBig
				}
			}
		}
		b.WriteString(line)
		b.WriteString("\r\n")
	}
}

// chunkConn plays a client from a script: Read hands out data at most
// chunk bytes at a time and then EOF; writes vanish. The embedded Conn is
// nil, so a call the session is not expected to make panics.
type chunkConn struct {
	net.Conn
	data  []byte
	chunk int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.data)
	c.data = c.data[n:]
	return n, nil
}

func (c *chunkConn) Write(p []byte) (int, error)     { return len(p), nil }
func (c *chunkConn) SetReadDeadline(time.Time) error { return nil }

// testBufSize is a read buffer small enough that short inputs cross many
// buffer boundaries.
const testBufSize = 16

// checkReadData runs wire through the reference and through
// session.readData, delivered 1 byte, 7 bytes and everything per Read, into
// a production-size and a tiny read buffer, and requires the same body,
// the same error and the same unread remainder every time.
func checkReadData(t *testing.T, wire []byte, max int) {
	t.Helper()
	srv := NewServer(Config{MaxMessageBytes: max}, nil)
	for _, chunk := range []int{1, 7, len(wire) + 1} {
		ref := bufio.NewReader(&chunkConn{data: wire, chunk: chunk})
		want, wantErr := refReadData(ref, max)
		wantRest, _ := io.ReadAll(ref)

		for _, bufSize := range []int{readBufSize, testBufSize} {
			conn := &chunkConn{data: wire, chunk: chunk}
			s := &session{srv: srv, conn: conn, bw: bufio.NewWriter(conn), buf: make([]byte, bufSize)}
			got, gotErr := s.readData()
			rest, _ := io.ReadAll(conn)
			gotRest := append(append([]byte(nil), s.buf[s.r:s.w]...), rest...)

			if got != want || gotErr != wantErr || !bytes.Equal(gotRest, wantRest) {
				t.Fatalf("wire %q, max %d, %d bytes per read, buffer %d:\n got %q, %v, rest %q\nwant %q, %v, rest %q",
					wire, max, chunk, bufSize, got, gotErr, gotRest, want, wantErr, wantRest)
			}
		}
	}
}

type readDataCase struct {
	wire string
	max  int
}

// readDataCases is the table of the differential test and the seed corpus
// of FuzzReadData.
func readDataCases() []readDataCase {
	const big = 1 << 20
	cases := []readDataCase{
		{"Subject: x\r\n\r\nhello\r\n.\r\n", big},
		{".\r\n", big},
		{"\r\n\r\n.\r\n", big}, // empty lines
		{"\n\n.\n", big},
		{"a\nb\n.\n", big},                        // bare LF
		{"a\r\r\nb\r\r\r\n.\r\r\n", big},          // CRs before the LF, also on the terminator
		{"a\rb\r\n\r\ra\r\n.\r\ra\r\n.\r\n", big}, // CRs inside a line stay
		{"..\r\n.\r\n", big},                      // stuffed lone dot is a line, not the end
		{"..a\r\n...\r\n.b\r\n.\r\n", big},
		{"a\r\n.\r\nb\r\n.\r\n", big}, // lone dot mid-body ends it; the rest is commands
		{"a\r\n.\r\nQUIT\r\n", big},
		{". \r\n.\r\n", big},
		// CR runs longer than the small buffer: a terminator, a stuffed
		// line that only looked like one, a plain line's ending.
		{"." + strings.Repeat("\r", 40) + "\n", big},
		{"." + strings.Repeat("\r", 40) + "x\r\n.\r\n", big},
		{"a" + strings.Repeat("\r", 40) + "\n.\r\n", big},
		// Missing terminator: the connection's error comes back.
		{"", big},
		{"a\r\n", big},
		{"a\r\nb", big},
		{"a\r\n.", big},
		{"a\r\n.\r", big},
		// The size limit: two 48-byte lines store as exactly 100 bytes.
		{strings.Repeat("x", 48) + "\r\n" + strings.Repeat("y", 48) + "\r\n.\r\nNOOP\r\n", 100},
		{strings.Repeat("x", 48) + "\r\n" + strings.Repeat("y", 49) + "\r\n.\r\nNOOP\r\n", 100},
		{strings.Repeat("x", 48) + "\n" + strings.Repeat("y", 48) + "\n.\n", 100}, // bare LF stores as CRLF
		{strings.Repeat("x", 98) + "\r\n\r\n.\r\n", 100},                          // the empty line is the one too many
		{strings.Repeat("x", 300) + "\r\nmore\r\n.\r\n.\r\n", 100},                // over mid-line, drained to the first lone dot
		{strings.Repeat("x", 300) + "\r\nmore\r\n", 100},                          // over, then the peer goes away
		{"." + strings.Repeat("x", 99) + "\r\n.\r\n", 100},                        // the stuffing dot does not count
	}
	// Lines of one, two and two-plus-one read buffers, starting with a dot,
	// for both buffer sizes the check uses.
	for _, size := range []int{testBufSize, readBufSize} {
		for _, n := range []int{size, 2 * size, 2*size + 1} {
			line := "." + strings.Repeat("z", n-1)
			cases = append(cases, readDataCase{line + "\r\n." + line + "\r\n.\r\n", big})
		}
	}
	return cases
}

func TestReadDataMatchesReference(t *testing.T) {
	for _, c := range readDataCases() {
		checkReadData(t, []byte(c.wire), c.max)
	}
}

func FuzzReadData(f *testing.F) {
	for _, c := range readDataCases() {
		f.Add([]byte(c.wire), uint16(min(c.max, 1<<16)-1))
	}
	f.Fuzz(func(t *testing.T, wire []byte, max uint16) {
		checkReadData(t, wire, int(max)+1)
	})
}
