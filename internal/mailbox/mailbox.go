// Package mailbox stores delivered mail. The CR engine decides *whether*
// a message reaches a user; this package is *where* it lands: an
// in-memory per-user inbox with mbox-format export (RFC 4155 "mboxrd"
// quoting), so a live deployment's users can actually read what the
// filter let through — and tests can assert on inbox contents rather
// than counters. A body the engine kept in its body store stays there:
// the inbox holds its reference and reads it back only for the export.
package mailbox

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/bodystore"
	"repro/internal/core"
	"repro/internal/mail"
)

// Stored is one delivered message with its delivery metadata.
type Stored struct {
	Msg       *mail.Message
	Via       core.DeliveryVia
	Delivered time.Time
	// body refers to Msg's body in the store's body store; zero when
	// the body is on Msg.
	body bodystore.Ref
}

// Store is the per-user inbox collection. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	byUser map[string][]Stored
	bodies *bodystore.Store
}

// NewStore returns an empty mailbox store.
func NewStore() *Store {
	return &Store{byUser: make(map[string][]Stored)}
}

// SetBodies registers the body store the engine keeps bodies in
// (core.Config.Bodies), so WriteMbox can read the bodies of the
// deliveries that refer to it. Call it before the first delivery.
func (s *Store) SetBodies(b *bodystore.Store) { s.bodies = b }

// Sink returns the engine hook that files deliveries into the store:
//
//	engine.SetInboxSink(store.Sink())
func (s *Store) Sink() func(core.Delivery, *mail.Message) {
	return func(d core.Delivery, m *mail.Message) {
		s.mu.Lock()
		key := d.User.Key()
		s.byUser[key] = append(s.byUser[key], Stored{Msg: m, Via: d.Via, Delivered: d.DeliveredAt, body: d.Body})
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
// A body that cannot be read from the body store is not skipped: its
// message is written with an X-CR-Body-Error header and an empty body,
// the rest of the inbox follows, and WriteMbox returns the read errors.
func (s *Store) WriteMbox(w io.Writer, user mail.Address) error {
	var readErrs []error
	for _, st := range s.Inbox(user) {
		body, err := s.body(st)
		if err != nil {
			readErrs = append(readErrs, fmt.Errorf("mailbox: body of %s: %w", st.Msg.ID, err))
		}
		if err := writeOne(w, st, body, err); err != nil {
			return err
		}
	}
	return errors.Join(readErrs...)
}

// body returns st's body, from the body store when it is there.
func (s *Store) body(st Stored) (string, error) {
	if st.body == (bodystore.Ref{}) {
		return st.Msg.Body, nil
	}
	if s.bodies == nil {
		return "", errors.New("no body store")
	}
	return s.bodies.Get(st.body)
}

func writeOne(w io.Writer, st Stored, body string, bodyErr error) error {
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
	if bodyErr != nil {
		h.Set("X-CR-Body-Error", bodyErr.Error())
	}
	// The headers render CRLF-terminated; mbox convention is bare LF.
	if _, err := io.WriteString(w, strings.ReplaceAll(h.Render(), "\r\n", "\n")); err != nil {
		return err
	}
	body = strings.ReplaceAll(body, "\r\n", "\n")
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
