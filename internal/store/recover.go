package store

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Recovery is the result of a boot-time Recover.
type Recovery struct {
	// Snapshot is the loaded snapshot, nil on first boot.
	Snapshot *Snapshot
	// Log is the opened write-ahead log, ready for appending. The caller
	// owns it (attach the journal, Close on shutdown).
	Log *wal.Log
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// Truncated reports whether a torn or corrupt WAL tail was cut off
	// (the expected aftermath of a crash, not an error).
	Truncated bool
	// TornBytes is how many bytes the truncation discarded.
	TornBytes int64
}

// Recover restores an installation's state: load the newest snapshot
// from snapPath (if any), then open the WAL and replay the suffix past
// the snapshot's WalLSN cut into the stores.
//
// The cut is sampled *before* the stores export (Saver callers sample
// LastLSN first), so mutations journalled during the export window have
// LSN > cut and replay again on top of a snapshot that may already
// contain them — which is safe because every store's Apply is
// idempotent (whitelist: insert-if-absent / delete; reputation:
// per-entry LSN guard; spool: per-item LSN guard plus a terminal-fate
// set). Conversely every record with LSN <= cut is guaranteed inside
// the snapshot: each store serialises (apply, journal) pairs against
// its export. Each record goes to every wired store's Apply, which
// decodes its own ops and ignores the rest; an op no store claims (the
// reserved greylist op of older logs) replays as a no-op.
//
// A torn WAL tail is truncated, never fatal: the only hard failures are
// I/O errors and a snapshot newer than this build understands.
func Recover(snapPath string, walOpts wal.Options, st Stores) (*Recovery, error) {
	snap, err := LoadFile(snapPath, st)
	if err != nil {
		return nil, err
	}
	var fromLSN uint64
	if snap != nil {
		fromLSN = snap.WalLSN
	}
	log, stats, err := wal.Open(walOpts, fromLSN, st.Replay())
	if err != nil {
		return nil, err
	}
	return &Recovery{
		Snapshot:  snap,
		Log:       log,
		Replayed:  stats.Replayed,
		Truncated: stats.Truncated,
		TornBytes: stats.TornBytes,
	}, nil
}

// Checkpoint is the snapshot protocol over a WAL, the counterpart of
// Recover. It samples the cut BEFORE save exports the stores (mutations
// journalled during the export replay idempotently on top), syncs the
// log so the cut is durable, seals the active segment so the cut lives
// in a compactable segment, calls save with the cut, and then deletes
// every sealed segment wholly at or below the cut. It returns the cut
// and the number of segments deleted.
//
// A failed sync or save ends the checkpoint with nothing deleted. A
// failed rotation does not: the snapshot is still good, and compaction
// never deletes the unsealed segment; its error is returned with
// compaction's. With a nil log Checkpoint only saves, at cut 0.
func Checkpoint(l *wal.Log, save func(cut uint64) error) (cut uint64, compacted int, err error) {
	if l == nil {
		return 0, 0, save(0)
	}
	cut = l.LastLSN()
	if err := l.Sync(); err != nil {
		return cut, 0, fmt.Errorf("store: wal sync before snapshot (snapshot skipped): %w", err)
	}
	rotateErr := l.Rotate()
	if rotateErr != nil {
		rotateErr = fmt.Errorf("store: wal rotate: %w", rotateErr)
	}
	if err := save(cut); err != nil {
		return cut, 0, errors.Join(rotateErr, err)
	}
	compacted, err = l.CompactThrough(cut)
	return cut, compacted, errors.Join(rotateErr, err)
}
