package simnet

import (
	"sync"
	"testing"

	"repro/internal/mail"
)

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s after Freeze did not panic", what)
		}
	}()
	fn()
}

// TestFreezeRejectsMutation pins Network.Freeze: once frozen, adding a
// remote server, a mailbox on a registered server or a spamtrap panics.
func TestFreezeRejectsMutation(t *testing.T) {
	w := newWorld(t, 1)
	r := w.addRemote("partner.example", "192.0.2.20")
	r.AddMailbox("client", PersonaLegit)
	w.net.Freeze()
	w.net.Freeze() // freezing twice is harmless

	mustPanic(t, "AddRemote", func() { w.net.AddRemote(NewRemoteServer("late.example", "192.0.2.21")) })
	mustPanic(t, "AddMailbox", func() { r.AddMailbox("late", PersonaLegit) })
	mustPanic(t, "AddMailboxBehavior", func() { r.AddMailboxBehavior("late", PersonaRobot, DefaultBehavior(PersonaRobot)) })
	mustPanic(t, "AddTrap", func() { w.traps.AddTrap(mail.MustParseAddress("late@lure.example")) })

	if _, _, ok := r.Lookup(mail.MustParseAddress("late@partner.example")); ok {
		t.Fatal("a mailbox added after Freeze is visible")
	}
	if _, _, ok := r.Lookup(mail.MustParseAddress("client@partner.example")); !ok {
		t.Fatal("a mailbox added before Freeze is gone")
	}
}

// TestFrozenTablesConcurrentReaders has four goroutines read the frozen
// remote-server table, mailboxes and trap set without a lock (run it
// under -race -count=10) and requires each read to give the answer it
// gave before the freeze.
func TestFrozenTablesConcurrentReaders(t *testing.T) {
	w := newWorld(t, 1)
	r := w.addRemote("partner.example", "192.0.2.20")
	r.AddMailbox("client", PersonaLegit)
	r.AddMailbox("Robot", PersonaRobot)
	w.addRemote("bystander.example", "203.0.113.10").AddMailbox("victim", PersonaInnocent)
	w.traps.AddTrap(mail.MustParseAddress("trap@bystander.example"))

	type answer struct {
		remote  bool
		persona Persona
		exists  bool
		trap    bool
	}
	queries := []mail.Address{
		mail.MustParseAddress("client@partner.example"),
		mail.MustParseAddress("CLIENT@partner.example"),
		mail.MustParseAddress("robot@partner.example"),
		mail.MustParseAddress("nobody@partner.example"),
		mail.MustParseAddress("victim@bystander.example"),
		mail.MustParseAddress("Trap@bystander.example"),
		mail.MustParseAddress("x@nowhere.example"),
		mail.Null,
	}
	read := func(a mail.Address) answer {
		var ans answer
		if rs := w.net.remote(a.Domain); rs != nil {
			ans.remote = true
			ans.persona, _, ans.exists = rs.Lookup(a)
		}
		ans.trap = w.traps.IsTrap(a)
		return ans
	}
	want := make([]answer, len(queries))
	for i, a := range queries {
		want[i] = read(a)
	}
	w.net.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				for i, a := range queries {
					if got := read(a); got != want[i] {
						t.Errorf("%s: frozen read %+v, before the freeze %+v", a, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestLookupMatchesKeyedTable pins RemoteServer.Lookup, keyed by
// canonical address, to the string-keyed table it replaced
// (mail.Address.Key of local@server-domain): the same mailboxes exist
// for mixed-case local parts, other domains and the null address.
func TestLookupMatchesKeyedTable(t *testing.T) {
	r := NewRemoteServer("partner.example", "192.0.2.20")
	ref := map[string]Persona{}
	for _, mb := range []struct {
		local string
		p     Persona
	}{{"alice", PersonaLegit}, {"Bob", PersonaNewsletter}, {"CAROL", PersonaInnocent}, {"dept-x.p", PersonaRobot}} {
		r.AddMailbox(mb.local, mb.p)
		ref[mail.Address{Local: mb.local, Domain: r.Domain}.Key()] = mb.p
	}
	for _, a := range []mail.Address{
		{Local: "alice", Domain: "partner.example"},
		{Local: "ALICE", Domain: "partner.example"},
		{Local: "bob", Domain: "partner.example"},
		{Local: "Bob", Domain: "partner.example"},
		{Local: "carol", Domain: "partner.example"},
		{Local: "Dept-X.P", Domain: "partner.example"},
		{Local: "alice", Domain: "other.example"},
		{Local: "dave", Domain: "partner.example"},
		{Local: "", Domain: "partner.example"},
		mail.Null,
	} {
		wantP, wantOK := ref[a.Key()]
		for _, frozen := range []bool{false, true} {
			if frozen {
				r.freeze()
			}
			p, _, ok := r.Lookup(a)
			if ok != wantOK || p != wantP {
				t.Errorf("Lookup(%q) frozen=%v = %v, %v; the Key() table says %v, %v", a, frozen, p, ok, wantP, wantOK)
			}
		}
	}
}
