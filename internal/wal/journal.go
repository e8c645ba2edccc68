package wal

// Journaled is a durable store as Attach sees it: the store encodes
// each of its own mutations as a Record and hands it to the hook
// installed by SetJournal, which returns the assigned LSN (0 if the
// append was dropped). Its counterpart on replay, Apply(Record) error,
// decodes the store's own ops and ignores the rest (store.Stores.Replay
// calls it). The log itself knows no store.
type Journaled interface {
	SetJournal(func(Record) uint64)
}

// Appender is what a Journal appends through: a *Log, or a decorator
// around one (internal/faults/seam applies the "wal-append" target so).
type Appender interface {
	Append(Record) (uint64, error)
}

// Journal connects the durable stores' change-journal hooks to a Log:
// every mutation becomes one appended record. Appends are fail-open —
// a rejected append (a closed or failed log, or an injected fault)
// returns LSN 0, is not tapped, and the in-memory mutation proceeds,
// mirroring how the rest of the pipeline degrades rather than blocks.
// Nothing counts the rejections; the spool's Recorder counts its own
// (JournalDropped).
type Journal struct {
	log Appender
	tap func(Record)
}

// NewJournal wraps log.
func NewJournal(log Appender) *Journal { return &Journal{log: log} }

// SetTap installs a callback invoked with every successfully appended
// record (LSN filled in). The crash-restart experiment uses it to keep
// the shadow copy of the committed mutation sequence. Must be set
// before the journal is attached.
func (j *Journal) SetTap(fn func(Record)) { j.tap = fn }

// Emit appends one record and returns its LSN, 0 if the append was
// dropped. It is the hook every durable store journals through.
func (j *Journal) Emit(r Record) uint64 {
	lsn, err := j.log.Append(r)
	if err != nil {
		return 0
	}
	if j.tap != nil {
		r.LSN = lsn
		j.tap(r)
	}
	return lsn
}

// Attach installs Emit as the change-journal hook of every store; nil
// entries are skipped.
func (j *Journal) Attach(stores ...Journaled) {
	for _, s := range stores {
		if s != nil {
			s.SetJournal(j.Emit)
		}
	}
}
