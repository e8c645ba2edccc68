package whitelist

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
)

// liveBytesPerEntry bounds the store's live heap per entry on
// heapGuardStore's fixed workload. With each entry kept once, in its
// list's log, behind an int32 index and one account per user, the store
// holds 138 B per entry. When every entry also sat in a map of entries
// next to the log, and each user had a white and a black list in two
// parallel maps, it held 219 B. The bound is 138 B plus 25 %, so a
// second copy of the entries that creeps back fails it.
const liveBytesPerEntry = 173

// heapGuardStore fills s with a fixed workload shaped like a seeded
// fleet company: 2,000 users with 28 whitelisted and 2 blacklisted
// senders each, drawn from shared pools of addresses, one user per
// simulated minute. It returns the number of entries added.
func heapGuardStore(s *Store, clk *clock.Sim, users, contacts []mail.Address) int {
	rng := rand.New(rand.NewSource(1))
	n := 0
	for _, u := range users {
		for i := 0; i < 28; i++ {
			if s.AddWhite(u, contacts[rng.Intn(len(contacts))], SourceSeed) {
				n++
			}
		}
		for i := 0; i < 2; i++ {
			if s.AddBlack(u, contacts[rng.Intn(len(contacts))]) {
				n++
			}
		}
		clk.Advance(time.Minute)
	}
	return n
}

func TestLiveHeapPerEntry(t *testing.T) {
	users := make([]mail.Address, 2000)
	for i := range users {
		users[i] = mail.Address{Local: fmt.Sprintf("user%04d", i), Domain: "corp.example"}
	}
	contacts := make([]mail.Address, 20000)
	for i := range contacts {
		contacts[i] = mail.Address{Local: fmt.Sprintf("contact%05d", i), Domain: fmt.Sprintf("d%03d.example", i%500)}
	}
	clk := clock.NewSim(t0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore(clk)
	n := heapGuardStore(s, clk, users, contacts)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	t.Logf("%d entries, %.0f B/entry", n, perEntry)
	if perEntry > liveBytesPerEntry {
		t.Fatalf("store holds %.0f B per entry, bound %d", perEntry, liveBytesPerEntry)
	}
}
