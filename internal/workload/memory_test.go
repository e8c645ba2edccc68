package workload

import (
	"runtime"
	"testing"

	"repro/internal/mail"
)

// liveBytesPerEmail bounds the fleet's live heap per generated email at
// the end of heapGuardConfig's run. The fleet keeps per-company state
// (whitelists, quarantine, reputation), one byte of ground truth per
// message, one slim record per challenge and one delay per delayed
// delivery: 40.4 B per email since the lanes hold their per-user state
// in slices (41.5 B with it in fleet-wide maps). When it kept the truth
// and the gray context in maps keyed by message ID, the same run held
// 125 B per email, 78 B while each whitelist entry was stored three
// times, 74 B while it kept the context of every gray-spooled message
// and a full challenge per record, and 48.8 B while every engine kept a
// record of each delivery. The bound is 41.3 B plus 25 %, so a map
// entry per message that creeps back fails it.
const liveBytesPerEmail = 52

// heapGuardConfig is smallConfig with enough traffic that per-message
// state outweighs the fleet's fixed set-up.
func heapGuardConfig() Config {
	cfg := smallConfig(41)
	for i := range cfg.Profiles {
		cfg.Profiles[i].DailyVolume = 2000
	}
	return cfg
}

func TestLiveHeapPerEmail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 6-day fleet")
	}
	mail.ResetIDCounter()
	f := NewFleet(heapGuardConfig())
	f.Run(6)
	var emails int64
	for _, n := range generated(f) {
		emails += n
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(f)
	perEmail := float64(ms.HeapAlloc) / float64(emails)
	t.Logf("%d emails, %.1f MB live, %.1f B/email", emails, float64(ms.HeapAlloc)/1e6, perEmail)
	if perEmail > liveBytesPerEmail {
		t.Fatalf("live heap %.0f B per generated email, bound %d", perEmail, liveBytesPerEmail)
	}
}
