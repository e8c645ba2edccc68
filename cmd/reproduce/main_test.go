package main

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestUnknownArtifactRejectedBeforeRun pins that a bad -only fails fast:
// it must exit 2 naming the artifact, without building a fleet first.
func TestUnknownArtifactRejectedBeforeRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-preset", "standard", "-only", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr %q)", code, stderr.String())
	}
	if got := stderr.String(); got != "unknown artifact \"bogus\"\n" {
		t.Fatalf("stderr = %q, want only the unknown-artifact error", got)
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout = %q, want empty", stdout.String())
	}
}

// TestFaultPlanRefusedWhereIgnored: the sensitivity table, the
// crash-restart artifact and every paired ablation build runs that take
// no fault plan, so -fault-plan with any of them exits 2 at once, naming
// the flag and the artifact, instead of printing a clean run.
func TestFaultPlanRefusedWhereIgnored(t *testing.T) {
	const plan = "../../internal/experiments/testdata/chaos-plan.json"
	// Each case maps the flag the error names to the arguments that set it.
	cases := map[string][]string{
		"-sensitivity":       {"-sensitivity", "2"},
		"-only crashrestart": {"-only", "crashrestart"},
	}
	for name := range experiments.Paired {
		cases["-only "+name] = []string{"-only", name}
	}
	for named, extra := range cases {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-preset", "quick", "-companies", "3", "-days", "2", "-fault-plan", plan}, extra...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit = %d, want 2 (stderr %q)", extra, code, stderr.String())
		}
		if got, want := stderr.String(), "-fault-plan is not applied by "+named+"\n"; got != want {
			t.Errorf("%v: stderr = %q, want %q", extra, got, want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: stdout = %q, want empty", extra, stdout.String())
		}
	}
}

// TestOnlyRendersOneArtifact runs a valid single-run artifact, in any
// letter case, and every paired ablation on a tiny fleet, and checks
// that every artifact the -only usage text names resolves.
func TestOnlyRendersOneArtifact(t *testing.T) {
	cases := []struct{ only, want string }{{"FIG1", "Figure 1"}}
	for name := range experiments.Paired {
		cases = append(cases, struct{ only, want string }{name, "baseline"})
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		args := []string{"-preset", "quick", "-companies", "3", "-days", "2", "-only", tc.only}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-only %s: exit = %d (stderr %q)", tc.only, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("-only %s: output lacks %q:\n%s", tc.only, tc.want, stdout.String())
		}
	}

	var usage bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &usage); code != 0 {
		t.Fatalf("-h: exit = %d", code)
	}
	_, list, ok := strings.Cut(usage.String(), "render one artifact: ")
	if !ok {
		t.Fatalf("usage text names no artifacts:\n%s", usage.String())
	}
	list, _, _ = strings.Cut(list, "\n")
	names := strings.Split(list, "|")
	if want := len(experiments.Artifacts) + len(specials) + len(experiments.Paired); len(names) != want {
		t.Errorf("usage names %d artifacts, want %d: %q", len(names), want, list)
	}
	shared := make(map[string]bool)
	for _, a := range experiments.Artifacts {
		shared[a.Name] = true
	}
	for _, name := range names {
		if !shared[name] && !slices.Contains(specials, name) && experiments.Paired[name] == nil {
			t.Errorf("usage names %q, which no shared-run artifact, special or paired ablation resolves", name)
		}
	}
}
