// Package gateway adapts the CR engine to the SMTP server: it is the glue
// a live deployment (cmd/crserver, examples/company) uses to run the
// paper's product for real — TCP SMTP in, dispatcher decisions out, with
// MTA-IN rejections surfaced as proper SMTP status codes at RCPT time
// exactly like the studied MTAs did (550 no-such-user for 62.36% of their
// traffic).
package gateway

import (
	"repro/internal/core"
	"repro/internal/greylist"
	"repro/internal/mail"
	"repro/internal/overload"
	"repro/internal/smtp"
)

// Backend adapts a core.Engine to smtp.Backend.
type Backend struct {
	engine *core.Engine
	grey   *greylist.Store
	ctl    *overload.Controller
}

// Option customises a Backend.
type Option func(*Backend)

// WithGreylist enables SMTP greylisting in front of the engine: unseen
// (network, sender, recipient) tuples get a 451 at RCPT time and must
// retry after the configured delay — the companion technique §5.2 hints
// at, cutting challenge volume before the CR engine even sees the spam.
func WithGreylist(g *greylist.Store) Option {
	return func(b *Backend) { b.grey = g }
}

// WithOverload puts an admission controller in front of Deliver: a
// message the controller sheds is tempfailed — 451 under load, 421
// while draining for shutdown — and never reaches the engine, so a
// compliant sender retries it later. The shed policy is strictly
// fail-safe: overload converts deliveries into retries, never losses.
func WithOverload(ctl *overload.Controller) Option {
	return func(b *Backend) { b.ctl = ctl }
}

// New returns the SMTP backend for engine.
func New(engine *core.Engine, opts ...Option) *Backend {
	b := &Backend{engine: engine}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Engine returns the wrapped engine.
func (b *Backend) Engine() *core.Engine { return b.engine }

// ValidateSender implements smtp.Backend: the resolvability and
// administrative-rejection checks run at MAIL FROM so spam is refused as
// early as possible.
func (b *Backend) ValidateSender(from mail.Address) *smtp.Reply {
	probe := &mail.Message{EnvelopeFrom: from, Rcpt: b.anyLocal()}
	switch b.engine.CheckMTAIn(probe) {
	case core.Unresolvable:
		return &smtp.Reply{Code: 450, Text: "cannot resolve sender domain"}
	case core.SenderRejected:
		return &smtp.Reply{Code: 550, Text: "sender rejected"}
	default:
		return nil
	}
}

// anyLocal fabricates a syntactically-valid local recipient so the
// sender-only checks can run through CheckMTAIn.
func (b *Backend) anyLocal() mail.Address {
	domains := b.engine.Config().Domains
	if len(domains) == 0 {
		return mail.Address{Local: "postmaster", Domain: "localhost.localdomain"}
	}
	return mail.Address{Local: "postmaster", Domain: domains[0]}
}

// ValidateRcpt implements smtp.Backend: relay policy and recipient
// existence, rejected with the SMTP codes real MTAs use, then (when
// enabled) greylisting. The greylist runs last so rejections for
// non-existent users stay permanent — greylisting must never mask a 550.
func (b *Backend) ValidateRcpt(from, rcpt mail.Address) *smtp.Reply {
	probe := &mail.Message{EnvelopeFrom: from, Rcpt: rcpt}
	switch b.engine.CheckMTAIn(probe) {
	case core.NoRelay:
		return &smtp.Reply{Code: 554, Text: "relay access denied"}
	case core.UnknownRecipient:
		return &smtp.Reply{Code: 550, Text: "no such user"}
	case core.Malformed:
		return &smtp.Reply{Code: 553, Text: "mailbox name not allowed"}
	}
	if b.grey != nil {
		// smtp.Backend does not pass the client IP to ValidateRcpt, so
		// the greylist keys on sender+recipient with a placeholder
		// network. Nothing re-checks later with the real IP.
		if b.grey.Check("0.0.0.0", from, rcpt) == greylist.TempReject {
			return &smtp.Reply{Code: 451, Text: "greylisted, please retry later"}
		}
	}
	return nil
}

// Deliver implements smtp.Backend: accepted messages run the full
// dispatcher pipeline (white/black/gray, filters, challenge). With an
// admission controller installed, delivery first acquires a slot (or
// waits, bounded by the controller's queue deadline); a shed message is
// tempfailed so the sending MTA retries it.
func (b *Backend) Deliver(msg *mail.Message) *smtp.Reply {
	if b.ctl != nil {
		grant, reason, ok := b.ctl.Wait(msg.ID)
		if !ok {
			if reason == overload.ReasonDraining {
				return &smtp.Reply{Code: 421, Text: "service shutting down, please retry later"}
			}
			return &smtp.Reply{Code: 451, Text: "server busy (" + string(reason) + "), please retry later"}
		}
		defer grant.Release()
	}
	switch b.engine.Receive(msg) {
	case core.Accepted:
		return nil
	case core.Unresolvable:
		return &smtp.Reply{Code: 450, Text: "cannot resolve sender domain"}
	case core.SenderRejected:
		return &smtp.Reply{Code: 550, Text: "sender rejected"}
	case core.NoRelay:
		return &smtp.Reply{Code: 554, Text: "relay access denied"}
	case core.UnknownRecipient:
		return &smtp.Reply{Code: 550, Text: "no such user"}
	default:
		return &smtp.Reply{Code: 554, Text: "transaction failed"}
	}
}
