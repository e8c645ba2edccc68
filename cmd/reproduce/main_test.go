package main

import (
	"bytes"
	"strings"
	"testing"
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

// TestOnlyRendersOneArtifact runs a valid single-run artifact and a
// special one on a tiny fleet, in any letter case.
func TestOnlyRendersOneArtifact(t *testing.T) {
	for _, tc := range []struct{ only, want string }{
		{"FIG1", "Figure 1"},
		{"reputation", "reputation"},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-preset", "quick", "-companies", "3", "-days", "2", "-only", tc.only}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-only %s: exit = %d (stderr %q)", tc.only, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("-only %s: output lacks %q:\n%s", tc.only, tc.want, stdout.String())
		}
	}
}
