package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden files in testdata/")

// TestGoldenRender pins the full rendered reproduction — every table and
// figure RenderAll prints — for the quick preset at two seeds. Any
// change to the simulation, the drivers or the renderers that moves a
// single character shows here. A deliberate change regenerates the files
// with `go test ./internal/experiments -run GoldenRender -update` and
// says why in the commit.
func TestGoldenRender(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Quick runs")
	}
	for _, seed := range []int64{1, 42} {
		got := RenderAll(NewRun(Quick(seed)))
		checkGolden(t, filepath.Join("testdata", fmt.Sprintf("quick-seed%d.txt", seed)), got)
	}
}

// checkGolden compares got with the golden file at path (or rewrites
// the file under -update) and reports the first lines that differ.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
	if diff := firstDiffs(string(want), got, 5); diff != "" {
		t.Errorf("%s drifted (rerun with -update if the change is intended):\n%s", path, diff)
	}
}

// firstDiffs lists up to limit differing lines of want and got, with
// their line numbers; "" means the texts are equal.
func firstDiffs(want, got string, limit int) string {
	if want == got {
		return ""
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i, n := 0, 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, w, g)
		if n++; n == limit {
			break
		}
	}
	if len(wl) != len(gl) {
		fmt.Fprintf(&b, "want %d lines, got %d\n", len(wl), len(gl))
	}
	return b.String()
}

// TestSurgeGolden pins the overload surge sweep's render for the quick
// preset at seed 7: every intensity's admitted, shed and delay columns
// and the ham-safety verdict. A change to the admission controller or
// the fleet's overload path that moves a single number shows here.
func TestSurgeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four Quick runs")
	}
	checkGolden(t, filepath.Join("testdata", "surge-quick-seed7.txt"), Surge(Quick(7)).Render())
}
