package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/faults/seam"
	"repro/internal/mail"
	"repro/internal/reputation"
	"repro/internal/whitelist"
)

var (
	t0  = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)
	bob = mail.MustParseAddress("bob@corp.example")
)

func populated(clk *clock.Sim) *whitelist.Store {
	wl := whitelist.NewStore(clk)
	wl.AddWhite(bob, mail.MustParseAddress("alice@example.com"), whitelist.SourceChallenge)
	clk.Advance(time.Hour)
	wl.AddWhite(bob, mail.MustParseAddress("carol@example.com"), whitelist.SourceDigest)
	wl.AddBlack(bob, mail.MustParseAddress("spammer@junk.example"))
	carol := mail.MustParseAddress("carol@corp.example")
	wl.AddWhite(carol, mail.MustParseAddress("dave@example.com"), whitelist.SourceOutbound)
	return wl
}

func TestSaveLoadRoundTrip(t *testing.T) {
	clk := clock.NewSim(t0)
	src := populated(clk)

	var sb strings.Builder
	if err := Save(&sb, "corp", Stores{Whitelist: src}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}

	dst := whitelist.NewStore(clk)
	snap, err := Load(strings.NewReader(sb.String()), Stores{Whitelist: dst})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name != "corp" || snap.Version != formatVersion {
		t.Fatalf("snapshot header = %+v", snap)
	}

	if !dst.IsWhite(bob, mail.MustParseAddress("alice@example.com")) {
		t.Fatal("alice lost")
	}
	if black, _ := dst.Classify(bob, mail.MustParseAddress("spammer@junk.example")); !black {
		t.Fatal("blacklist lost")
	}
	carol := mail.MustParseAddress("carol@corp.example")
	if !dst.IsWhite(carol, mail.MustParseAddress("dave@example.com")) {
		t.Fatal("second user lost")
	}
	// Sources and timestamps survive: the churn analysis still works on
	// the restored store.
	n := dst.AdditionsBetween(bob, t0, t0.Add(30*time.Minute), whitelist.SourceChallenge)
	if n != 1 {
		t.Fatalf("restored challenge-sourced additions in window = %d, want 1", n)
	}
}

func TestLoadRejectsNewerVersion(t *testing.T) {
	clk := clock.NewSim(t0)
	wl := whitelist.NewStore(clk)
	_, err := Load(strings.NewReader(`{"version": 99, "lists": []}`), Stores{Whitelist: wl})
	if err == nil || !strings.Contains(err.Error(), "newer than this build") {
		t.Fatalf("err = %v, want descriptive newer-version rejection", err)
	}
	if _, err := Load(strings.NewReader(`{"version": 0, "lists": []}`), Stores{Whitelist: wl}); err == nil {
		t.Fatal("version 0 accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	clk := clock.NewSim(t0)
	wl := whitelist.NewStore(clk)
	if _, err := Load(strings.NewReader("not json"), Stores{Whitelist: wl}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadCapsInputSize(t *testing.T) {
	old := maxSnapshotBytes
	maxSnapshotBytes = 64
	defer func() { maxSnapshotBytes = old }()
	clk := clock.NewSim(t0)
	src := populated(clk)
	var sb strings.Builder
	if err := Save(&sb, "corp", Stores{Whitelist: src}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}
	dst := whitelist.NewStore(clk)
	if _, err := Load(strings.NewReader(sb.String()), Stores{Whitelist: dst}); err == nil {
		t.Fatal("oversized snapshot accepted past the read cap")
	}
}

func TestImportIsMergeNotReplace(t *testing.T) {
	clk := clock.NewSim(t0)
	src := populated(clk)
	var sb strings.Builder
	if err := Save(&sb, "corp", Stores{Whitelist: src}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}

	dst := whitelist.NewStore(clk)
	pre := mail.MustParseAddress("pre@existing.example")
	dst.AddWhite(bob, pre, whitelist.SourceManual)
	if _, err := Load(strings.NewReader(sb.String()), Stores{Whitelist: dst}); err != nil {
		t.Fatal(err)
	}
	if !dst.IsWhite(bob, pre) {
		t.Fatal("pre-existing entry destroyed by Load")
	}
	if !dst.IsWhite(bob, mail.MustParseAddress("alice@example.com")) {
		t.Fatal("imported entry missing")
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	clk := clock.NewSim(t0)
	src := populated(clk)
	if err := SaveFile(path, "corp", Stores{Whitelist: src}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}
	// No stray temp files.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want 1", len(entries))
	}

	dst := whitelist.NewStore(clk)
	snap, err := LoadFile(path, Stores{Whitelist: dst})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Name != "corp" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !dst.IsWhite(bob, mail.MustParseAddress("alice@example.com")) {
		t.Fatal("file round trip lost entries")
	}
}

func TestReputationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	clk := clock.NewSim(t0)
	wl := populated(clk)
	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	alice := mail.MustParseAddress("alice@example.com")
	for i := 0; i < 5; i++ {
		rep.Record(alice, "192.0.2.10", reputation.Delivered)
		clk.Advance(13 * time.Minute) // non-trivial decay factors
	}
	rep.Record(mail.MustParseAddress("spam@junk.example"), "100.64.0.1", reputation.RBLHit)

	if err := SaveFile(path, "corp", Stores{Whitelist: wl, Reputation: rep}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}
	// "Restart": fresh stores, restored from disk.
	wl2 := whitelist.NewStore(clk)
	rep2 := reputation.NewStore(reputation.DefaultConfig(), clk)
	snap, err := LoadFile(path, Stores{Whitelist: wl2, Reputation: rep2})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Reputation) == 0 {
		t.Fatal("snapshot carries no reputation entries")
	}
	a, b := rep.Score(alice, "192.0.2.10"), rep2.Score(alice, "192.0.2.10")
	if a.Score != b.Score || a.Mass != b.Mass || a.Band != b.Band {
		t.Fatalf("reputation drift across restart: %+v vs %+v", a, b)
	}
	if rep2.Stats().Entries != rep.Stats().Entries {
		t.Fatalf("entry count drift: %d vs %d", rep2.Stats().Entries, rep.Stats().Entries)
	}
}

// TestLoadOldSnapshotWithoutReputation: snapshots written before the
// reputation subsystem (no "reputation" key) still load cleanly.
func TestLoadOldSnapshotWithoutReputation(t *testing.T) {
	clk := clock.NewSim(t0)
	wl := whitelist.NewStore(clk)
	rep := reputation.NewStore(reputation.DefaultConfig(), clk)
	snap, err := Load(strings.NewReader(`{"version":1,"name":"old","lists":[]}`), Stores{Whitelist: wl, Reputation: rep})
	if err != nil || snap.Name != "old" {
		t.Fatalf("old snapshot rejected: snap=%+v err=%v", snap, err)
	}
	if rep.Stats().Entries != 0 {
		t.Fatalf("phantom reputation entries: %+v", rep.Stats())
	}
}

func TestLoadFileMissingIsFirstBoot(t *testing.T) {
	clk := clock.NewSim(t0)
	wl := whitelist.NewStore(clk)
	snap, err := LoadFile(filepath.Join(t.TempDir(), "nope.json"), Stores{Whitelist: wl})
	if err != nil || snap != nil {
		t.Fatalf("missing file: snap=%v err=%v", snap, err)
	}
}

func TestSaveFileOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	clk := clock.NewSim(t0)

	first := whitelist.NewStore(clk)
	first.AddWhite(bob, mail.MustParseAddress("v1@example.com"), whitelist.SourceManual)
	if err := SaveFile(path, "corp", Stores{Whitelist: first}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}
	second := populated(clk)
	if err := SaveFile(path, "corp", Stores{Whitelist: second}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}
	dst := whitelist.NewStore(clk)
	if _, err := LoadFile(path, Stores{Whitelist: dst}); err != nil {
		t.Fatal(err)
	}
	if dst.IsWhite(bob, mail.MustParseAddress("v1@example.com")) {
		t.Fatal("old snapshot contents leaked through")
	}
	if !dst.IsWhite(bob, mail.MustParseAddress("alice@example.com")) {
		t.Fatal("new snapshot missing")
	}
}

func TestSaverRecordsDuration(t *testing.T) {
	clk := clock.NewSim(t0)
	wl := populated(clk)
	s := &Saver{Path: filepath.Join(t.TempDir(), "state.json"), Name: "corp"}
	if st := s.Stats(); st.LastDuration != 0 || !st.LastSuccess.IsZero() {
		t.Fatalf("fresh saver stats = %+v", st)
	}
	if err := s.Save(Stores{Whitelist: wl}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Attempts != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LastDuration <= 0 {
		t.Fatalf("LastDuration not recorded: %+v", st)
	}
	if !st.LastSuccess.Equal(clk.Now()) {
		t.Fatalf("LastSuccess = %v, want %v", st.LastSuccess, clk.Now())
	}

	// A failed save bumps Failed but leaves the last-success marks.
	bad := &Saver{Path: filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"), Name: "corp"}
	if err := bad.Save(Stores{Whitelist: wl}, 0, clk.Now()); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
	if st := bad.Stats(); st.Attempts != 1 || st.Failed != 1 || st.LastDuration != 0 {
		t.Fatalf("failed-save stats = %+v", st)
	}
}

// TestSaverStoreFaultKeepsPreviousSnapshot: under a "store" error plan,
// applied by the fsync seam crserver wires into its Saver, Save takes
// the real fsync-failure path: it fails and counts the failure, the
// snapshot already on disk stays byte-identical, and the temp file is
// gone.
func TestSaverStoreFaultKeepsPreviousSnapshot(t *testing.T) {
	clk := clock.NewSim(t0)
	wl := populated(clk)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := SaveFile(path, "corp", Stores{Whitelist: wl}, 0, clk.Now()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faults.Parse(strings.NewReader(`{"rules":[{"target":"store","kind":"error"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	set := faults.New(plan, 1, clk)
	s := &Saver{Path: path, Name: "corp", Fsync: seam.Fsync(set, "store")}
	wl.AddWhite(bob, mail.MustParseAddress("erin@example.com"), whitelist.SourceDigest)
	clk.Advance(time.Hour)
	if err := s.Save(Stores{Whitelist: wl}, 0, clk.Now()); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Save under a store fault = %v, want the injected error", err)
	}
	if st := s.Stats(); st.Attempts != 1 || st.Failed != 1 || !st.LastSuccess.IsZero() {
		t.Fatalf("stats = %+v, want one failed attempt", st)
	}
	if got := set.Counts()["store/error"]; got != 1 {
		t.Fatalf("store/error fired %d times, want 1", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("a failed save changed the previous snapshot")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".crstate-*")); len(left) != 0 {
		t.Fatalf("a failed save left %v behind", left)
	}
}
