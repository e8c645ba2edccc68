package gateway

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/mail"
	"repro/internal/overload"
	"repro/internal/whitelist"
)

// overloadBackend wires an engine behind an admission controller with a
// single slot and a one-slot queue, so the third concurrent delivery
// sheds.
func overloadBackend(t *testing.T) (*Backend, *overload.Controller) {
	t.Helper()
	clk := clock.Real{}
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "127.0.0.1")
	wl := whitelist.NewStore(clk)
	eng := core.New(core.Config{
		Name:          "overloaded",
		Domains:       []string{"corp.example"},
		ChallengeFrom: mail.MustParseAddress("challenge@corp.example"),
	}, clk, dns, nil, wl, func(core.OutboundChallenge) {})
	eng.AddUser(mail.MustParseAddress("bob@corp.example"))
	ctl := overload.New(overload.Config{Limit: 1, QueueCapacity: 1, Name: "overloaded"})
	return New(eng, WithOverload(ctl)), ctl
}

func TestDeliverShedsTempfail(t *testing.T) {
	b, ctl := overloadBackend(t)
	hold := ctl.Submit("occupier", nil, nil)
	if hold.Granted == nil {
		t.Fatal("could not occupy the only slot")
	}
	// The queued filler releases its slot as soon as it is granted.
	if o := ctl.Submit("filler", func(g *overload.Grant, _ time.Duration) { g.Release() }, nil); !o.Queued {
		t.Fatalf("filler not queued: %+v", o)
	}
	msg := grayMessage()
	reply := b.Deliver(msg)
	if reply == nil || reply.Code != 451 {
		t.Fatalf("Deliver under load = %+v, want 451", reply)
	}
	if !strings.Contains(reply.Text, "busy") {
		t.Fatalf("reply text %q should say busy", reply.Text)
	}
	// The engine never saw the shed message: shed is pre-admission.
	if got := b.engine.Metrics().MTAIncoming; got != 0 {
		t.Fatalf("engine saw %d messages, want 0", got)
	}
	// Capacity freed (the filler takes the slot and returns it): the
	// retry is admitted and accepted.
	hold.Granted.Release()
	if reply := b.Deliver(msg); reply != nil {
		t.Fatalf("Deliver after release = %+v, want accept", reply)
	}
	m := ctl.Metrics()
	if m.ShedTotal() != 1 || m.Shed["queue-full"] != 1 {
		t.Fatalf("controller sheds = %+v", m.Shed)
	}
}

func TestDeliverDraining421(t *testing.T) {
	b, ctl := overloadBackend(t)
	ctl.StartDrain()
	reply := b.Deliver(grayMessage())
	if reply == nil || reply.Code != 421 {
		t.Fatalf("Deliver while draining = %+v, want 421", reply)
	}
}

func grayMessage() *mail.Message {
	return &mail.Message{
		ID:           "gray-1",
		EnvelopeFrom: mail.MustParseAddress("alice@example.com"),
		Rcpt:         mail.MustParseAddress("bob@corp.example"),
		ClientIP:     "127.0.0.1",
		Subject:      "hello",
		Size:         100,
	}
}
