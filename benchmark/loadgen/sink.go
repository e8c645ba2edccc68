package loadgen

import (
	"bufio"
	"bytes"
	"net"
	"sync"
)

// Sink is the smarthost the server under test hands its challenges to:
// a minimal SMTP server on loopback that accepts everything and counts
// the messages by the original message ID the challenge subject carries
// ("Please confirm your message (<id>)"), so the benchmark can check
// that every acknowledged challenged message produced exactly one
// challenge.
type Sink struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	ids   map[string]int
	total int
}

// StartSink listens on a free loopback port and serves until Close.
func StartSink() (*Sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Sink{ln: ln, conns: make(map[net.Conn]struct{}), ids: make(map[string]int)}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr is the sink's host:port.
func (s *Sink) Addr() string { return s.ln.Addr().String() }

// Counts returns the number of messages received, how many distinct
// message IDs they named, and how many named none.
func (s *Sink) Counts() (total, unique, unnamed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	unnamed = s.ids[""]
	unique = len(s.ids)
	if unnamed > 0 {
		unique--
	}
	return s.total, unique, unnamed
}

// Close stops the listener, drops open sessions and waits for every
// session goroutine to end.
func (s *Sink) Close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Sink) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

var subjectPrefix = []byte("subject:")

func (s *Sink) serve(conn net.Conn) {
	br := bufio.NewReader(conn)
	say := func(line string) bool {
		_, err := conn.Write([]byte(line + "\r\n"))
		return err == nil
	}
	if !say("220 sink.example ESMTP") {
		return
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		verb := bytes.ToUpper(bytes.TrimSpace(line))
		if len(verb) > 4 {
			verb = verb[:4]
		}
		ok := true
		switch string(verb) {
		case "EHLO", "HELO":
			ok = say("250 sink.example")
		case "MAIL", "RCPT", "RSET", "NOOP":
			ok = say("250 OK")
		case "DATA":
			if !say("354 go ahead") {
				return
			}
			id, err := readMessage(br)
			if err != nil {
				return
			}
			s.mu.Lock()
			s.ids[id]++
			s.total++
			s.mu.Unlock()
			ok = say("250 OK")
		case "QUIT":
			say("221 bye")
			return
		default:
			ok = say("500 unrecognized")
		}
		if !ok {
			return
		}
	}
}

// readMessage consumes a dot-terminated body and returns the message ID
// in the parentheses of its Subject header ("" if there is none).
func readMessage(br *bufio.Reader) (string, error) {
	id, inHeaders := "", true
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return "", err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 1 && line[0] == '.' {
			return id, nil
		}
		if len(line) == 0 {
			inHeaders = false
		}
		if inHeaders && len(line) > len(subjectPrefix) && bytes.EqualFold(line[:len(subjectPrefix)], subjectPrefix) {
			if open, end := bytes.LastIndexByte(line, '('), bytes.LastIndexByte(line, ')'); open >= 0 && end > open {
				id = string(line[open+1 : end])
			}
		}
	}
}
