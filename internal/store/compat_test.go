package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mail"
	"repro/internal/reputation"
	"repro/internal/spool"
	"repro/internal/wal"
	"repro/internal/whitelist"
)

var update = flag.Bool("update", false, "regenerate the recovery image in testdata/compat/")

// compatDir holds an installation image written by an earlier build: a
// snapshot (with a greylist table) plus one WAL segment carrying every
// op kind, and the exports the live stores had when it was written.
// Regenerate it only on purpose, with `go test ./internal/store -run
// RecoverParentImage -update`: the point of the image is that a newer
// build recovers the bytes an older one wrote.
const compatDir = "testdata/compat"

// compatExports is the pinned state a recovery must reproduce.
type compatExports struct {
	Whitelist  []whitelist.ExportedList   `json:"whitelist"`
	Reputation []reputation.ExportedEntry `json:"reputation"`
	Spool      spool.ExportedState        `json:"spool"`
}

// TestRecoverParentImage recovers the pinned image into fresh stores
// and requires the exact whitelist, reputation and spool exports the
// writing build had live.
func TestRecoverParentImage(t *testing.T) {
	if *update {
		writeCompatImage(t)
	}
	dir := t.TempDir()
	copyTree(t, compatDir, dir)

	clk := clock.NewSim(t0)
	cold := Stores{
		Whitelist:  whitelist.NewStore(clk),
		Reputation: reputation.NewStore(reputation.Config{}, clk),
		Spool:      spool.NewState(),
	}
	rec, err := Recover(filepath.Join(dir, "state.json"), wal.Options{Dir: filepath.Join(dir, "wal"), Manual: true}, cold)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Log.Close()
	if rec.Snapshot == nil || rec.Replayed == 0 || rec.Truncated {
		t.Fatalf("recovery = %+v, want a snapshot, a replayed suffix and a clean tail", rec)
	}
	got := mustIndent(t, compatExports{
		Whitelist:  cold.Whitelist.Export(),
		Reputation: cold.Reputation.Export(),
		Spool:      cold.Spool.Export(),
	})
	want, err := os.ReadFile(filepath.Join(compatDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from the pinned exports\n got %s\nwant %s", got, want)
	}
}

// writeCompatImage rebuilds testdata/compat: journalled stores take one
// round of every op kind, a snapshot is cut, a second round lands in
// the WAL suffix only, and the live exports are pinned.
func writeCompatImage(t *testing.T) {
	t.Helper()
	walDir := filepath.Join(compatDir, "wal")
	if err := os.RemoveAll(compatDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewSim(t0)
	wl := whitelist.NewStore(clk)
	rep := reputation.NewStore(reputation.Config{}, clk)
	sp := spool.NewState()
	log, _, err := wal.Open(wal.Options{Dir: walDir, Manual: true}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j := wal.NewJournal(log)
	j.Attach(wl, rep, nil)
	rc := &spool.Recorder{State: sp, Emit: j.Emit}

	user := mail.MustParseAddress("Alice@corp.example")
	round := func(n int) {
		s := func(name string) mail.Address {
			return mail.MustParseAddress(fmt.Sprintf("%s%d@remote.example", name, n))
		}
		wl.AddWhite(user, s("friend"), whitelist.SourceChallenge)
		wl.AddWhite(user, s("Digest"), whitelist.SourceDigest)
		wl.AddWhite(user, s("gone"), whitelist.SourceOutbound)
		wl.AddBlack(user, s("pest"))
		clk.Advance(7 * time.Minute)
		wl.RemoveWhite(user, s("gone"))
		rep.Record(s("friend"), "198.51.100.7", reputation.Delivered)
		rep.Record(s("pest"), "203.0.113.9", reputation.Outcome(n%6))
		clk.Advance(3 * time.Minute)
		j.Emit(wal.Record{
			Time:   clk.Now(),
			Op:     wal.OpGreylist,
			Origin: "greylist",
			User:   fmt.Sprintf("203.0.113|pest%d@remote.example|alice@corp.example", n),
			Aux:    clk.Now().Add(20 * time.Minute).UnixNano(),
		})
		for i, fate := range []spool.Status{spool.StatusQueued, spool.StatusSent, spool.StatusBounced, spool.StatusExpired} {
			id := fmt.Sprintf("<r%d-m%d@corp.example>", n, i)
			rc.Enqueue(clk.Now(), spool.Challenge{
				MsgID: id, Token: fmt.Sprintf("tok-%d-%d", n, i), From: user, To: s("stranger"),
				Subject: "Re: hello", URL: "http://cr.corp.example/c/" + id, Size: 1200 + i, Issued: clk.Now(),
			})
			clk.Advance(time.Minute)
			rc.Attempt(clk.Now(), id, "temp", "451 try later", 1, clk.Now().Add(15*time.Minute))
			if fate != spool.StatusQueued {
				rc.Terminal(clk.Now(), id, fate, "perm", "550 no such user", 2)
			}
		}
		clk.Advance(time.Hour)
	}

	round(0)
	cut := log.LastLSN()
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := Save(&sb, "compat", Stores{Whitelist: wl, Reputation: rep, Spool: sp}, cut, clk.Now()); err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(sb.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	snap["greylist"] = json.RawMessage(fmt.Sprintf(
		`[{"key":"203.0.113|pest0@remote.example|alice@corp.example","first_seen":%q,"passed_at":"0001-01-01T00:00:00Z"}]`,
		t0.Format(time.RFC3339Nano)))
	writeFile(t, filepath.Join(compatDir, "state.json"), mustIndent(t, snap))

	round(1)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(compatDir, "want.json"), mustIndent(t, compatExports{
		Whitelist:  wl.Export(),
		Reputation: rep.Export(),
		Spool:      sp.Export(),
	}))
}

func mustIndent(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the regular files under src into dst, so recovery
// (which may truncate and append) never touches testdata.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
