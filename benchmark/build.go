package main

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// env is where a run lives: the checkout it measures and the build and
// scratch directories under it. Nothing outside root is written.
type env struct {
	root string // the checkout: go.mod, cmd/, benchmark/, BENCHMARK.json
	bin  string // root/.bench_build/bin
	tmp  string // root/.bench_build/tmp
	host hostInfo
	spec benchSpec
	// quick makes every workload set up once instead of several times;
	// the smoke test uses it, measurements never do.
	quick bool
}

// setupRepeats is how many times a run sets up from nothing: def for a
// measured run, whose setup_s is the median, once for a traced or quick
// one, which reports no set-up time.
func (e *env) setupRepeats(def int, traced bool) int {
	if traced || e.quick {
		return 1
	}
	return def
}

const buildDir = ".bench_build"

// findRoot locates the checkout from the working directory: the driver
// runs the benchmark from the root, a developer may run it from
// benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "benchmark", "go.mod")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "crserver")); err != nil {
			continue
		}
		return filepath.Abs(dir)
	}
	return "", fmt.Errorf("not in a checkout of the repository (need ./cmd/crserver and ./benchmark/go.mod)")
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, bin: filepath.Join(root, buildDir, "bin"), tmp: filepath.Join(root, buildDir, "tmp"), host: readHost()}
	if e.spec, err = loadSpec(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return nil, err
	}
	for _, d := range []string{e.bin, e.tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// programs are the binaries under test, built from the root module, and
// tools the helpers built from the benchmark's own module. layers is
// built only for a traced run, so an untraced run keeps working when a
// refactor of an internal API has broken the probes.
var (
	programs = []string{"crserver", "reproduce", "logstats"}
	tools    = []string{"genlog"}
)

// build compiles whatever is missing or older than the newest source
// file. Build time is never part of a measurement.
func (e *env) build(traced bool) error {
	want := append(append([]string{}, programs...), tools...)
	if traced {
		want = append(want, "layers")
	}
	newest, err := newestSource(e.root)
	if err != nil {
		return err
	}
	stale := false
	for _, name := range want {
		st, err := os.Stat(filepath.Join(e.bin, name))
		if err != nil || st.ModTime().Before(newest) {
			stale = true
		}
	}
	if !stale {
		return nil
	}
	pkgs := make([]string, len(programs))
	for i, p := range programs {
		pkgs[i] = "./cmd/" + p
	}
	if err := goBuild(e.root, e.bin, pkgs); err != nil {
		return err
	}
	pkgs = pkgs[:0]
	for _, t := range want[len(programs):] {
		pkgs = append(pkgs, "./"+t)
	}
	return goBuild(filepath.Join(e.root, "benchmark"), e.bin, pkgs)
}

func goBuild(dir, outDir string, pkgs []string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", outDir + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %s in %s: %v\n%s", strings.Join(pkgs, " "), dir, err, out)
	}
	return nil
}

// newestSource returns the latest modification time of any Go source or
// module file in the checkout.
func newestSource(root string) (time.Time, error) {
	var newest time.Time
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == buildDir || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if info, err := d.Info(); err == nil && info.ModTime().After(newest) {
				newest = info.ModTime()
			}
		}
		return nil
	})
	return newest, err
}
