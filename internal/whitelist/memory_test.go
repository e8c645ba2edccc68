package whitelist

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/mail"
)

// liveBytesPerEntry bounds the store's live heap per entry on
// heapGuardStore's fixed workload. With each entry kept once, as a
// 48-byte record in its list's log, behind a 4-byte slot of an
// open-addressed table, and one account per user, the store holds 66 B
// per entry. When the log held 64-byte Entry values behind a map from
// each canonical sender to its log position, it held 138 B; when every
// entry also sat in a map of entries next to the log, and each user had
// a white and a black list in two parallel maps, 219 B. The bound is
// 66 B plus 25 %, so a second copy of the entries, or a map back in
// the index, fails it.
const liveBytesPerEntry = 83

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

// heapGuardAddrs returns heapGuardStore's 2,000 users and its pool of
// 20,000 contacts spread over 500 domains.
func heapGuardAddrs() (users, contacts []mail.Address) {
	users = make([]mail.Address, 2000)
	for i := range users {
		users[i] = mail.Address{Local: fmt.Sprintf("user%04d", i), Domain: "corp.example"}
	}
	contacts = make([]mail.Address, 20000)
	for i := range contacts {
		contacts[i] = mail.Address{Local: fmt.Sprintf("contact%05d", i), Domain: fmt.Sprintf("d%03d.example", i%500)}
	}
	return users, contacts
}

func TestLiveHeapPerEntry(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 48 {
		t.Fatalf("a log record takes %d B, want 48", size)
	}
	users, contacts := heapGuardAddrs()
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
