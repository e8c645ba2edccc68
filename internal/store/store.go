// Package store persists a CR installation's durable state. The
// whitelists are the product's real asset — the paper's whole premise is
// that they converge to a stable contact set over weeks (§4.3) — so a
// deployment must carry them across restarts. Snapshots are JSON,
// written atomically (temp file + rename) so a crash mid-save never
// corrupts the previous state.
//
// Snapshots pair with the write-ahead log (internal/wal): a snapshot
// records the WAL cut it covers (WalLSN), Recover loads the newest
// snapshot and replays the WAL suffix on top, and compaction deletes
// sealed segments wholly below the cut. See DESIGN.md's persistence
// section for the recovery invariants.
//
// Quarantined messages are deliberately NOT persisted: they are 30-day
// transient state, and losing them on failover is survivable — senders
// simply get re-challenged. Outstanding *outbound* challenges are
// different: the engine has already acked the gray message and decided
// to challenge, so the pending spool (internal/spool) IS durable state
// — it rides in the snapshot and its transitions replay from the WAL.
package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/reputation"
	"repro/internal/spool"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

// FormatVersion identifies the snapshot schema.
const FormatVersion = 1

// maxSnapshotBytes caps how much of a snapshot file the decoder will
// read: a snapshot is operator-supplied input, and a corrupt or hostile
// length must not balloon into an unbounded allocation. 256 MiB is two
// orders of magnitude above the largest observed installation state.
var maxSnapshotBytes int64 = 256 << 20

// Stores bundles the durable state of one installation. Any field may
// be nil when the corresponding subsystem is not wired.
type Stores struct {
	Whitelist  *whitelist.Store
	Reputation *reputation.Store
	Spool      *spool.State
}

// Replay returns a fold of one WAL record into every wired store. Each
// store's Apply ignores the ops of the others, so the fold hands every
// record to all of them. Nil fields are left out here, where their
// static type is known, so no typed-nil pointer is ever called.
func (st Stores) Replay() func(wal.Record) error {
	var applies []func(wal.Record) error
	if st.Whitelist != nil {
		applies = append(applies, st.Whitelist.Apply)
	}
	if st.Reputation != nil {
		applies = append(applies, st.Reputation.Apply)
	}
	if st.Spool != nil {
		applies = append(applies, st.Spool.Apply)
	}
	return func(r wal.Record) error {
		for _, apply := range applies {
			if err := apply(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// Snapshot is the serialised durable state of one installation.
type Snapshot struct {
	Version int                      `json:"version"`
	Name    string                   `json:"name"`
	SavedAt time.Time                `json:"saved_at"`
	Lists   []whitelist.ExportedList `json:"lists"`
	// Reputation carries the sender-reputation counters (absent in
	// snapshots written before the reputation subsystem, and when no
	// store is wired). Counters round-trip through JSON bit-for-bit, so
	// a restore reproduces every score exactly.
	Reputation []reputation.ExportedEntry `json:"reputation,omitempty"`
	// Spool carries the outbound challenge spool: the pending items and
	// the terminal fates needed for idempotent WAL replay.
	Spool *spool.ExportedState `json:"spool,omitempty"`
	// WalLSN is the write-ahead-log cut this snapshot covers: every
	// journalled mutation with LSN <= WalLSN is folded into the exported
	// state. Zero when no WAL is attached.
	WalLSN uint64 `json:"wal_lsn,omitempty"`
}

// Save writes a snapshot of the stores to w. walLSN is the WAL cut the
// caller sampled BEFORE exporting (see Saver.Save); pass 0 without a
// WAL.
func Save(w io.Writer, name string, st Stores, walLSN uint64, now time.Time) error {
	snap := Snapshot{
		Version: FormatVersion,
		Name:    name,
		SavedAt: now.UTC(),
		WalLSN:  walLSN,
	}
	if st.Whitelist != nil {
		snap.Lists = st.Whitelist.Export()
	}
	if st.Reputation != nil {
		snap.Reputation = st.Reputation.Export()
	}
	if st.Spool != nil {
		sp := st.Spool.Export()
		snap.Spool = &sp
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	return nil
}

// Load reads a snapshot from r and merges it into the stores. Snapshots
// from a newer build (Version > FormatVersion) are rejected with a
// descriptive error rather than misread, and the reader is capped at
// maxSnapshotBytes so corrupt input cannot trigger unbounded reads.
func Load(r io.Reader, st Stores) (*Snapshot, error) {
	var snap Snapshot
	if err := json.NewDecoder(io.LimitReader(r, maxSnapshotBytes)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	if snap.Version > FormatVersion {
		return nil, fmt.Errorf("store: snapshot format version %d is newer than this build supports (max %d); refusing to load it partially — upgrade the binary or restore an older snapshot",
			snap.Version, FormatVersion)
	}
	if snap.Version < 1 {
		return nil, fmt.Errorf("store: invalid snapshot version %d", snap.Version)
	}
	if st.Whitelist != nil {
		if err := st.Whitelist.Import(snap.Lists); err != nil {
			return nil, err
		}
	}
	if st.Reputation != nil && len(snap.Reputation) > 0 {
		st.Reputation.Import(snap.Reputation)
	}
	if st.Spool != nil && snap.Spool != nil {
		if err := st.Spool.Import(*snap.Spool); err != nil {
			return nil, err
		}
	}
	return &snap, nil
}

// SaveFile atomically writes the snapshot to path.
//
// Durability contract: the data lands in a temp file in the same
// directory, is fsynced, renamed into place, and then the parent
// directory is fsynced. Readers never observe a partial snapshot (the
// rename is atomic), and once SaveFile returns the new snapshot
// survives a crash: on filesystems that journal metadata only (or
// reorder the rename against the durable directory entry), a crash
// immediately after os.Rename could otherwise roll the directory back
// to the old entry — or to none — losing the snapshot the caller was
// just told is safe. The directory fsync pins the rename itself.
func SaveFile(path, name string, st Stores, walLSN uint64, now time.Time) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".crstate-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename

	if err := Save(tmp, name, st, walLSN, now); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: rename: %w", err)
	}
	if err := wal.SyncDir(dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Saver persists periodic snapshots to one path, optionally guarded by
// a fault injector (target "store"): an injected write error aborts the
// save before any bytes hit disk, so the previous snapshot stays intact
// — the failure mode the atomic temp-file+rename protocol exists for.
type Saver struct {
	// Path is the snapshot file; required.
	Path string
	// Name labels the snapshot (installation name).
	Name string
	// Injector is an optional fault source for the save path.
	Injector faults.Injector

	mu           sync.Mutex
	attempts     int64
	failed       int64
	lastDuration time.Duration
	lastSuccess  time.Time
}

// Save writes one snapshot, consulting the injector first. walLSN is
// the WAL cut sampled before this call (0 without a WAL).
func (s *Saver) Save(st Stores, walLSN uint64, now time.Time) error {
	s.mu.Lock()
	s.attempts++
	inj := s.Injector
	s.mu.Unlock()
	if inj != nil {
		if d := inj.Decide("store", 0); d.Err != nil {
			s.mu.Lock()
			s.failed++
			s.mu.Unlock()
			return fmt.Errorf("store: save %s: %w", s.Path, d.Err)
		}
	}
	start := time.Now()
	if err := SaveFile(s.Path, s.Name, st, walLSN, now); err != nil {
		s.mu.Lock()
		s.failed++
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.lastDuration = time.Since(start)
	s.lastSuccess = now
	s.mu.Unlock()
	return nil
}

// SaverStats is an operational snapshot of a Saver.
type SaverStats struct {
	Attempts int64
	Failed   int64
	// LastDuration is how long the most recent successful save took
	// (wall clock, zero until one succeeds).
	LastDuration time.Duration
	// LastSuccess is the state timestamp of the most recent successful
	// save.
	LastSuccess time.Time
}

// Stats returns the save counters and last-success timing.
func (s *Saver) Stats() SaverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SaverStats{
		Attempts:     s.attempts,
		Failed:       s.failed,
		LastDuration: s.lastDuration,
		LastSuccess:  s.lastSuccess,
	}
}

// LoadFile reads a snapshot file into the stores. A missing file is not
// an error: it returns (nil, nil) so a first boot starts empty.
func LoadFile(path string, st Stores) (*Snapshot, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	defer f.Close()
	return Load(f, st)
}
