// Crash-restart experiment: the durability claim of the WAL subsystem,
// tested end to end. A single installation's stores run under a
// write-ahead log; seeded traffic mutates them; at seeded points the
// installation "crashes" — the on-disk state is cloned with the
// un-synced tail torn by the fault injector, exactly what a power cut
// leaves — and a cold recovery (snapshot + WAL suffix replay) must
// reproduce the pre-crash whitelist, reputation and outbound spool
// state byte for byte, with zero acknowledged (fsynced) mutations lost.
//
// The paper's product kept its whitelists as the asset of record
// (§4.3); this experiment is the proof that our recovery protocol
// preserves that asset across the crash-failure model.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/mail"
	"repro/internal/reputation"
	"repro/internal/spool"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// CrashPoint is the outcome of one seeded crash+recovery cycle.
type CrashPoint struct {
	// Mutations applied (and tapped) since the run began.
	Mutations int
	// AppendedLSN / DurableLSN are the log watermarks at the instant of
	// the crash: records past DurableLSN were never acknowledged.
	AppendedLSN uint64
	DurableLSN  uint64
	// RecoveredLSN is the last LSN the cold boot replayed to. The
	// contract is DurableLSN <= RecoveredLSN <= AppendedLSN.
	RecoveredLSN uint64
	// Replayed counts WAL records applied over the snapshot at boot.
	Replayed int
	// Truncated reports whether recovery cut a torn tail.
	Truncated bool
	TornBytes int64
	// LostAcked is how many fsync-acknowledged records recovery lost
	// (must be zero).
	LostAcked uint64
	// StateIdentical reports whether the recovered whitelist and
	// reputation exports are byte-identical to a shadow fold of the
	// committed record sequence up to RecoveredLSN.
	StateIdentical bool
	// SpoolIdentical reports whether the recovered outbound challenge
	// spool (pending items and terminal fates) is byte-identical to the
	// same shadow fold — the zero-acked-challenge-loss claim.
	SpoolIdentical bool
	// Detail carries the first divergence when a state check fails.
	Detail string
}

// CrashRestartReport is the outcome of the crash-restart experiment.
type CrashRestartReport struct {
	Seed        int64
	Points      []CrashPoint
	Mutations   int
	Compactions int64
	Segments    int
}

// Pass reports whether every crash point recovered perfectly.
func (r *CrashRestartReport) Pass() bool {
	for _, p := range r.Points {
		if p.LostAcked != 0 || !p.StateIdentical || !p.SpoolIdentical ||
			p.RecoveredLSN < p.DurableLSN || p.RecoveredLSN > p.AppendedLSN {
			return false
		}
	}
	return true
}

// SpoolPass reports whether every crash point recovered the outbound
// challenge spool byte-identically.
func (r *CrashRestartReport) SpoolPass() bool {
	for _, p := range r.Points {
		if !p.SpoolIdentical {
			return false
		}
	}
	return true
}

// crashInstall is one generation of the installation under test: live
// stores with the journal attached, plus the paths recovery needs.
type crashInstall struct {
	st  store.Stores
	rec *spool.Recorder
	log *wal.Log
	dir string // holds state.json + wal/
}

func (ci *crashInstall) snapPath() string { return filepath.Join(ci.dir, "state.json") }
func (ci *crashInstall) walDir() string   { return filepath.Join(ci.dir, "wal") }

func crashWALOpts(dir string) wal.Options {
	// Tiny segments so rotation and compaction happen constantly even in
	// a short run.
	return wal.Options{Dir: dir, Manual: true, SegmentBytes: 8 << 10}
}

// CrashRestart runs the experiment: `crashes` crash+recovery cycles
// over one continuously-evolving installation, with seeded mutation
// traffic, periodic group commits, and snapshot+compaction cycles in
// between. Every cycle the recovered state is checked byte-for-byte
// against a shadow copy folded from the tapped record sequence.
func CrashRestart(seed int64, crashes int) (*CrashRestartReport, error) {
	if crashes <= 0 {
		crashes = 6
	}
	root, err := os.MkdirTemp("", "crashrestart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewSim(time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC))
	report := &CrashRestartReport{Seed: seed}

	// committed[i] is the record that got LSN i+1; the tap keeps it in
	// step with the live log, and a crash truncates it to what survived.
	var committed []wal.Record

	newStores := func() store.Stores {
		return store.Stores{
			Whitelist:  whitelist.NewStore(clk),
			Reputation: reputation.NewStore(reputation.Config{}, clk),
			Spool:      spool.NewState(),
		}
	}
	newInstall := func(gen int) (*crashInstall, error) {
		dir := filepath.Join(root, fmt.Sprintf("gen-%03d", gen))
		if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
			return nil, err
		}
		return &crashInstall{st: newStores(), dir: dir}, nil
	}

	attach := func(ci *crashInstall) {
		j := wal.NewJournal(ci.log)
		j.SetTap(func(r wal.Record) { committed = append(committed, r) })
		j.Attach(ci.st.Whitelist, ci.st.Reputation)
		// Spool transitions journal through the same path the outbound
		// queue uses in production: Recorder -> Journal.Emit.
		ci.rec = &spool.Recorder{State: ci.st.Spool, Emit: j.Emit}
	}

	live, err := newInstall(0)
	if err != nil {
		return nil, err
	}
	live.log, _, err = wal.Open(crashWALOpts(live.walDir()), 0, nil)
	if err != nil {
		return nil, err
	}
	attach(live)

	users := make([]mail.Address, 6)
	for i := range users {
		users[i] = mail.MustParseAddress(fmt.Sprintf("user%d@corp.example", i))
	}
	sender := func(i int) mail.Address {
		return mail.MustParseAddress(fmt.Sprintf("sender%d@remote%d.example", i, i%7))
	}

	// Spool traffic: every challenge walks enqueue -> attempts ->
	// terminal through the journalled Recorder, exactly the transitions
	// the outbound queue makes. pendingIDs mirrors the live spool's
	// pending set (rebuilt from recovered state after each crash).
	var spoolSeq int
	challengeFrom := mail.MustParseAddress("challenge@corp.example")
	spoolEnqueue := func() {
		spoolSeq++
		id := fmt.Sprintf("chal-%06d", spoolSeq)
		live.rec.Enqueue(clk.Now(), spool.Challenge{
			MsgID:   id,
			Token:   fmt.Sprintf("tok-%06d", spoolSeq),
			From:    challengeFrom,
			To:      sender(rng.Intn(200)),
			Subject: "please confirm",
			URL:     fmt.Sprintf("https://corp.example/c/%06d", spoolSeq),
			Size:    1800,
			Issued:  clk.Now(),
		})
	}
	randPending := func() (spool.Item, bool) {
		p := live.st.Spool.Pending(0, nil)
		if len(p) == 0 {
			return spool.Item{}, false
		}
		return p[rng.Intn(len(p))], true
	}

	mutate := func() {
		u := users[rng.Intn(len(users))]
		s := sender(rng.Intn(200))
		switch rng.Intn(14) {
		case 0, 1, 2:
			live.st.Whitelist.AddWhite(u, s, whitelist.Source(rng.Intn(5)))
		case 3:
			live.st.Whitelist.AddBlack(u, s)
		case 4:
			live.st.Whitelist.RemoveWhite(u, s)
		case 10, 11:
			spoolEnqueue()
		case 12:
			if it, ok := randPending(); ok {
				live.rec.Attempt(clk.Now(), it.Challenge.MsgID, "tempfail", "451 try again later",
					it.Attempts+1, clk.Now().Add(15*time.Minute))
			} else {
				spoolEnqueue()
			}
		case 13:
			if it, ok := randPending(); ok {
				st := []spool.Status{spool.StatusSent, spool.StatusBounced, spool.StatusExpired}[rng.Intn(3)]
				live.rec.Terminal(clk.Now(), it.Challenge.MsgID, st, "", "", it.Attempts+1)
			} else {
				spoolEnqueue()
			}
		default:
			live.st.Reputation.Record(s, fmt.Sprintf("198.51.100.%d", rng.Intn(64)), reputation.Outcome(rng.Intn(6)))
		}
		report.Mutations++
		clk.Advance(time.Duration(1+rng.Intn(600)) * time.Second)
	}

	// snapshotCycle is the server's checkpoint: cut sampled before the
	// export, active segment sealed, snapshot saved, sealed segments
	// behind the cut deleted.
	snapshotCycle := func() error {
		_, _, err := store.Checkpoint(live.log, func(cut uint64) error {
			return store.SaveFile(live.snapPath(), "crash-restart", live.st, cut, clk.Now())
		})
		return err
	}

	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // Export types marshal by construction
		}
		return b
	}

	for c := 0; c < crashes; c++ {
		// A burst of traffic with interleaved group commits and the
		// occasional snapshot+compaction cycle.
		steps := 60 + rng.Intn(120)
		for i := 0; i < steps; i++ {
			mutate()
			if rng.Intn(7) == 0 {
				if err := live.log.Sync(); err != nil {
					return nil, err
				}
			}
			if rng.Intn(40) == 0 {
				if err := snapshotCycle(); err != nil {
					return nil, err
				}
			}
		}
		// Leave a few appends un-synced so most crashes have a real torn
		// tail to truncate.
		for i := 0; i < rng.Intn(6); i++ {
			mutate()
		}

		point := CrashPoint{
			Mutations:   report.Mutations,
			AppendedLSN: live.log.LastLSN(),
			DurableLSN:  live.log.DurableLSN(),
		}
		// Each generation is a fresh Log with fresh counters; bank this
		// one's compactions before abandoning it.
		report.Compactions += live.log.Metrics().Compactions

		// Crash: clone the durable image (+ injector-torn pending tail)
		// into the next generation's directory, abandon the old log.
		next, err := newInstall(c + 1)
		if err != nil {
			return nil, err
		}
		if err := live.log.CloneForCrash(next.walDir(), func(b []byte) []byte {
			return faults.TornWrite(rng, b)
		}); err != nil {
			return nil, err
		}
		if b, err := os.ReadFile(live.snapPath()); err == nil {
			if err := os.WriteFile(next.snapPath(), b, 0o644); err != nil {
				return nil, err
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}

		// Cold boot on the crash image.
		rec, err := store.Recover(next.snapPath(), crashWALOpts(next.walDir()), next.st)
		if err != nil {
			return nil, fmt.Errorf("crash %d: recovery refused to boot: %w", c, err)
		}
		next.log = rec.Log
		point.RecoveredLSN = rec.Log.LastLSN()
		point.Replayed = rec.Replayed
		point.Truncated = rec.Truncated
		point.TornBytes = rec.TornBytes
		if point.RecoveredLSN < point.DurableLSN {
			point.LostAcked = point.DurableLSN - point.RecoveredLSN
		}

		// Shadow copy: fold the committed record sequence 1..RecoveredLSN
		// into fresh stores. Recovery (snapshot + suffix replay) must land
		// on exactly this state: every journalled store byte-identical.
		shadow := newStores()
		m := point.RecoveredLSN
		if m > uint64(len(committed)) {
			point.Detail = fmt.Sprintf("recovered LSN %d beyond %d committed records", m, len(committed))
		} else {
			replay := shadow.Replay()
			for _, r := range committed[:m] {
				if err := replay(r); err != nil {
					return nil, fmt.Errorf("crash %d: shadow fold: %w", c, err)
				}
			}
			wlA, wlB := mustJSON(shadow.Whitelist.Export()), mustJSON(next.st.Whitelist.Export())
			repA, repB := mustJSON(shadow.Reputation.Export()), mustJSON(next.st.Reputation.Export())
			switch {
			case !bytes.Equal(wlA, wlB):
				point.Detail = "whitelist diverged from shadow"
			case !bytes.Equal(repA, repB):
				point.Detail = "reputation diverged from shadow"
			default:
				point.StateIdentical = true
			}
			spA, spB := mustJSON(shadow.Spool.Export()), mustJSON(next.st.Spool.Export())
			if bytes.Equal(spA, spB) {
				point.SpoolIdentical = true
			} else if point.Detail == "" {
				point.Detail = "spool diverged from shadow"
			}
		}
		report.Points = append(report.Points, point)

		// The recovered installation becomes the live one; records past
		// the recovery horizon died with the crash.
		committed = committed[:min(int(point.RecoveredLSN), len(committed))]
		attach(next)
		live = next
	}

	if err := live.log.Sync(); err != nil {
		return nil, err
	}
	m := live.log.Metrics()
	report.Compactions += m.Compactions
	report.Segments = m.Segments
	if err := live.log.Close(); err != nil {
		return nil, err
	}
	return report, nil
}

// Render formats the report, ending in the machine-checkable verdict
// line "crash safety: PASS" (or FAIL) that CI greps for.
func (r *CrashRestartReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Crash-restart durability (seed %d): %d crash point(s), %d mutations\n\n",
		r.Seed, len(r.Points), r.Mutations)
	fmt.Fprintf(&b, "%5s %9s %9s %9s %9s %6s %10s %6s %s\n",
		"crash", "appended", "durable", "recovered", "replayed", "torn", "tornBytes", "lost", "state")
	for i, p := range r.Points {
		state := "IDENTICAL"
		if !p.StateIdentical || !p.SpoolIdentical {
			state = "DIVERGED: " + p.Detail
		}
		torn := "-"
		if p.Truncated {
			torn = "yes"
		}
		fmt.Fprintf(&b, "%5d %9d %9d %9d %9d %6s %10d %6d %s\n",
			i+1, p.AppendedLSN, p.DurableLSN, p.RecoveredLSN, p.Replayed, torn, p.TornBytes, p.LostAcked, state)
	}
	fmt.Fprintf(&b, "\nfinal log: %d segment(s) live, %d compaction(s) over the run\n", r.Segments, r.Compactions)
	if r.Pass() {
		fmt.Fprintf(&b, "crash safety: PASS — every acked mutation recovered, whitelist+reputation byte-identical at all %d crash points\n",
			len(r.Points))
	} else {
		b.WriteString("crash safety: FAIL — see diverged/lost crash points above\n")
	}
	if r.SpoolPass() {
		fmt.Fprintf(&b, "spool recovery: PASS — pending challenge spool byte-identical at all %d crash points, zero acked challenges lost\n",
			len(r.Points))
	} else {
		b.WriteString("spool recovery: FAIL — see diverged crash points above\n")
	}
	return b.String()
}
