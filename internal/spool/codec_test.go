package spool

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mail"
	"repro/internal/wal"
)

var update = flag.Bool("update", false, "rewrite testdata/codec from the current code")

// codecDir holds one spool history as the spool code wrote it before
// the State kept compact records: the WAL segment its Recorder
// journalled, the snapshot JSON of its Export, and what Pending returned,
// for the live State and for a replay of the WAL. Rewrite it with
// -update only for a deliberate change of the on-disk format.
const codecDir = "testdata/codec"

// writeCodecHistory journals a spool history through a Recorder into a
// WAL in dir and returns the live State. The history covers issue times
// in three zones, a retry time in a fourth, a foreign sender, a URL
// that does not end in the token, an empty URL and size, two URL
// prefixes, and each terminal fate.
func writeCodecHistory(t *testing.T, dir string) *State {
	t.Helper()
	log, _, err := wal.Open(wal.Options{Dir: dir}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	rec := &Recorder{State: st, Emit: func(r wal.Record) uint64 {
		lsn, err := log.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}}
	cest := time.FixedZone("CEST", 2*3600)
	est := time.FixedZone("", -5*3600)
	ist := time.FixedZone("IST", 5*3600+1800)
	from := mail.MustParseAddress("challenge@corp.example")
	at := t0
	next := func() time.Time { at = at.Add(time.Minute); return at }
	std := func(id string, issued time.Time) Challenge {
		return Challenge{
			MsgID:   id,
			Token:   "tok-" + id,
			From:    from,
			To:      mail.MustParseAddress("s-" + id + "@victim.example"),
			Subject: "subject of " + id,
			URL:     "http://cr.corp.example/challenge/tok-" + id,
			Size:    1800,
			Issued:  issued,
		}
	}
	rec.Enqueue(next(), std("m1", t0))
	rec.Enqueue(next(), std("m2", t0.Add(time.Hour).In(cest)))
	rec.Attempt(next(), "m2", "tempfail", "tempfail: 451 busy", 1, t0.Add(2*time.Hour).In(est))
	foreign := std("m3", t0.Add(-time.Hour).In(ist))
	foreign.From = mail.MustParseAddress("Bounce@Elsewhere.example")
	foreign.URL = "https://elsewhere.example/c/42"
	rec.Enqueue(next(), foreign)
	bare := std("m4", t0)
	bare.URL, bare.Size, bare.Subject = "", 0, ""
	rec.Enqueue(next(), bare)
	rec.Enqueue(next(), std("m5", t0.Add(time.Second)))
	rec.Terminal(next(), "m5", StatusSent, "", "", 1)
	rec.Enqueue(next(), std("m6", t0))
	rec.Attempt(next(), "m6", "connection", "connection: refused", 1, t0.Add(15*time.Minute))
	rec.Terminal(next(), "m6", StatusExpired, "connection", "connection: refused", 2)
	other := std("m7", t0.Add(time.Nanosecond))
	other.URL = "http://localhost:8080/challenge/" + other.Token
	rec.Enqueue(next(), other)
	rec.Enqueue(next(), std("m8", t0))
	rec.Attempt(next(), "m8", "permfail", "permfail: 550 no such user", 1, time.Time{})
	rec.Terminal(next(), "m8", StatusBounced, "permfail", "permfail: 550 no such user", 1)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// codecViews returns the JSON of s's Export and of its Pending(0, nil).
func codecViews(t *testing.T, s *State) (export, pending []byte) {
	t.Helper()
	export, err := json.MarshalIndent(s.Export(), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	pending, err = json.MarshalIndent(s.Pending(0, nil), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return export, pending
}

// replayWAL folds the WAL in a copy of dir into a new State.
func replayWAL(t *testing.T, dir string) *State {
	t.Helper()
	tmp := t.TempDir()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment in %s: %v", dir, err)
	}
	for _, seg := range segs {
		copyFile(t, seg, filepath.Join(tmp, filepath.Base(seg)))
	}
	st := NewState()
	log, _, err := wal.Open(wal.Options{Dir: tmp}, 0, st.Apply)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(codecDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from %s:\ngot:\n%s\nwant:\n%s", what, codecDir, got, want)
	}
}

// TestCodecGoldens holds the spool's on-disk formats to the ones the
// code before the compact record wrote. The current code must journal
// the same WAL bytes and export the same snapshot; importing the golden
// snapshot must give back the golden Pending and re-export to the same
// bytes, zones and foreign senders and URLs included; and replaying the
// golden WAL must give the golden replayed Pending and Export.
func TestCodecGoldens(t *testing.T) {
	dir := t.TempDir()
	live := writeCodecHistory(t, dir)
	export, pending := codecViews(t, live)
	replayed := replayWAL(t, dir)
	rExport, rPending := codecViews(t, replayed)
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("history wrote %d WAL segments, want 1", len(segs))
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Join(codecDir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{
			"snapshot.json":                 export,
			"pending.json":                  pending,
			"replayed.json":                 rExport,
			"replayed-pending.json":         rPending,
			"wal/" + filepath.Base(segs[0]): seg,
		} {
			if err := os.WriteFile(filepath.Join(codecDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	sameBytes(t, "WAL segment", seg, readGolden(t, "wal/"+filepath.Base(segs[0])))
	sameBytes(t, "snapshot", export, readGolden(t, "snapshot.json"))
	sameBytes(t, "Pending", pending, readGolden(t, "pending.json"))
	sameBytes(t, "replayed snapshot", rExport, readGolden(t, "replayed.json"))
	sameBytes(t, "replayed Pending", rPending, readGolden(t, "replayed-pending.json"))

	var snap ExportedState
	if err := json.Unmarshal(readGolden(t, "snapshot.json"), &snap); err != nil {
		t.Fatal(err)
	}
	imported := NewState()
	if err := imported.Import(snap); err != nil {
		t.Fatal(err)
	}
	iExport, iPending := codecViews(t, imported)
	sameBytes(t, "re-exported snapshot", iExport, readGolden(t, "snapshot.json"))
	sameBytes(t, "Pending of the imported snapshot", iPending, readGolden(t, "pending.json"))

	fromWAL := replayWAL(t, filepath.Join(codecDir, "wal"))
	wExport, wPending := codecViews(t, fromWAL)
	sameBytes(t, "snapshot of the replayed golden WAL", wExport, readGolden(t, "replayed.json"))
	sameBytes(t, "Pending of the replayed golden WAL", wPending, readGolden(t, "replayed-pending.json"))
}
