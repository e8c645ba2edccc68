// Package mailbox stores delivered mail. The CR engine decides *whether*
// a message reaches a user; this package is *where* it lands: an
// in-memory per-user inbox with mbox-format export (RFC 4155 "mboxrd"
// quoting), so a live deployment's users can actually read what the
// filter let through — and tests can assert on inbox contents rather
// than counters.
package mailbox

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mail"
)

// Stored is one delivered message with its delivery metadata.
type Stored struct {
	Msg       *mail.Message
	Via       core.DeliveryVia
	Delivered time.Time
}

// Store is the per-user inbox collection. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	byUser map[string][]Stored
}

// NewStore returns an empty mailbox store.
func NewStore() *Store {
	return &Store{byUser: make(map[string][]Stored)}
}

// Sink returns the engine hook that files deliveries into the store:
//
//	engine.SetInboxSink(store.Sink())
func (s *Store) Sink() func(core.Delivery, *mail.Message) {
	return func(d core.Delivery, m *mail.Message) {
		s.mu.Lock()
		key := d.User.Key()
		s.byUser[key] = append(s.byUser[key], Stored{Msg: m, Via: d.Via, Delivered: d.DeliveredAt})
		s.mu.Unlock()
	}
}

// Inbox returns a copy of user's messages in delivery order.
func (s *Store) Inbox(user mail.Address) []Stored {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.byUser[user.Key()]
	out := make([]Stored, len(src))
	copy(out, src)
	return out
}

// WriteMbox renders user's inbox in mbox format to w: each message gets
// a "From " separator line, reconstructed headers, and an mboxrd-quoted
// body ("From " at line start becomes ">From ", and the quoting nests).
func (s *Store) WriteMbox(w io.Writer, user mail.Address) error {
	for _, st := range s.Inbox(user) {
		if err := writeOne(w, st); err != nil {
			return err
		}
	}
	return nil
}

func writeOne(w io.Writer, st Stored) error {
	m := st.Msg
	envFrom := m.EnvelopeFrom.String()
	if m.EnvelopeFrom.IsNull() {
		envFrom = "MAILER-DAEMON"
	}
	if _, err := fmt.Fprintf(w, "From %s %s\n", envFrom, st.Delivered.UTC().Format(time.ANSIC)); err != nil {
		return err
	}
	h := mail.NewHeaders()
	h.Set("From", m.EnvelopeFrom.String())
	h.Set("To", m.Rcpt.String())
	h.Set("Subject", m.Subject)
	h.Set("Date", st.Delivered.UTC().Format(time.RFC1123Z))
	h.Set("Message-ID", "<"+m.ID+"@crspam.local>")
	h.Set("X-CR-Delivered-Via", st.Via.String())
	// The headers render CRLF-terminated; mbox convention is bare LF.
	if _, err := io.WriteString(w, strings.ReplaceAll(h.Render(), "\r\n", "\n")); err != nil {
		return err
	}
	body := strings.ReplaceAll(m.Body, "\r\n", "\n")
	for _, line := range strings.Split(body, "\n") {
		if err := writeQuoted(w, line); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// writeQuoted applies mboxrd quoting: any line that is "From " preceded
// by zero or more '>' gains one more '>'.
func writeQuoted(w io.Writer, line string) error {
	trimmed := strings.TrimLeft(line, ">")
	if strings.HasPrefix(trimmed, "From ") {
		if _, err := io.WriteString(w, ">"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, line+"\n")
	return err
}
