package workload

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mail"
	"repro/internal/maillog"
)

var update = flag.Bool("update", false, "regenerate the golden files in testdata/")

// goldenBlock is the number of log lines each digest line covers, so a
// drift is located to a block instead of just "the hash changed".
const goldenBlock = 2000

// TestGoldenDecisionLog pins the decision log of a fixed-seed fleet —
// the byte stream LogSink receives — by sha256, per block of lines and
// whole, and requires workers=1 and workers=4 to write the same bytes.
// A deliberate change regenerates the digests with
// `go test ./internal/workload -run GoldenDecisionLog -update`.
func TestGoldenDecisionLog(t *testing.T) {
	logFor := func(workers int) []byte {
		mail.ResetIDCounter()
		var buf bytes.Buffer
		w := maillog.NewWriter(&buf)
		cfg := smallConfig(29)
		cfg.Workers = workers
		cfg.LogSink = w.Write
		NewFleet(cfg).Run(2)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := logFor(1), logFor(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("decision log differs between workers=1 and workers=4:\n%s",
			firstLineDiff(serial, parallel))
	}
	got := logDigest(serial)
	path := filepath.Join("testdata", "decision-log.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) == got {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] == gl[i] {
			continue
		}
		lines := bytes.SplitAfter(serial, []byte("\n"))
		lo := min(i*goldenBlock, len(lines))
		hi := min(lo+3, len(lines))
		t.Fatalf("decision log drifted (rerun with -update if intended):\n  want %s\n  got  %s\nfirst lines of that block now:\n%s",
			wl[i], gl[i], bytes.Join(lines[lo:hi], nil))
	}
	t.Fatalf("decision log drifted: want digest\n%s\ngot\n%s", want, got)
}

// logDigest renders one "lines a-b sha256" row per goldenBlock lines
// and a final "total" row over the whole log.
func logDigest(log []byte) string {
	var b strings.Builder
	lines := bytes.SplitAfter(log, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	for lo := 0; lo < len(lines); lo += goldenBlock {
		hi := min(lo+goldenBlock, len(lines))
		fmt.Fprintf(&b, "lines %d-%d %x\n", lo+1, hi, sha256.Sum256(bytes.Join(lines[lo:hi], nil)))
	}
	fmt.Fprintf(&b, "total %d %x\n", len(lines), sha256.Sum256(log))
	return b.String()
}

// firstLineDiff shows the first line where a and b differ.
func firstLineDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y []byte
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if !bytes.Equal(x, y) {
			return fmt.Sprintf("line %d:\n  workers=1 %q\n  workers=4 %q", i+1, x, y)
		}
	}
	return ""
}
