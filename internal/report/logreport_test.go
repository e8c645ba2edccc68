package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/maillog"
)

func logFixture() *maillog.Aggregate {
	at := time.Date(2010, 7, 1, 10, 0, 0, 0, time.UTC)
	agg := maillog.NewAggregate()
	add := func(co string, kind maillog.Kind, kvs ...string) {
		e := maillog.MakeEvent(at, co, kind, "m-1", kvs...)
		agg.Add(&e)
		agg.Lines++
	}
	add("acme", maillog.KindMTAAccept, "size", "1000")
	add("acme", maillog.KindMTADrop, "reason", "unknown-recipient")
	add("acme", maillog.KindDispatch, "spool", "gray")
	add("acme", maillog.KindFilterDrop, "filter", "rbl")
	add("acme", maillog.KindChallenge)
	add("acme", maillog.KindDeliver, "via", "whitelist")
	add("acme", maillog.KindWebVisit)
	add("acme", maillog.KindWebSolve)
	add("zeta", maillog.KindMTAAccept, "size", "500")
	add("zeta", maillog.KindDispatch, "spool", "white")
	add("zeta", maillog.KindDeliver, "via", "digest")
	agg.BadLines = 3
	agg.Lines += 3
	return agg
}

func TestLogSummary(t *testing.T) {
	out := LogSummary(logFixture()).Render()
	for _, want := range []string{
		"Log-derived statistics",
		"Log lines", "14",
		"Unparsable lines", "3",
		"MTA drop: unknown-recipient",
		"Spool: gray",
		"Filter drop: rbl",
		"Challenges sent",
		"Delivered via whitelist",
		"CAPTCHA solves",
		"Reflection ratio (CR)",
		"Solve rate", "100.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("LogSummary missing %q:\n%s", want, out)
		}
	}
}

func TestLogPerCompany(t *testing.T) {
	out := LogPerCompany(logFixture()).Render()
	iAcme := strings.Index(out, "acme")
	iZeta := strings.Index(out, "zeta")
	if iAcme < 0 || iZeta < 0 || iAcme > iZeta {
		t.Fatalf("companies missing or out of order:\n%s", out)
	}
	for _, want := range []string{"Per company", "Incoming", "Reflection", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("LogPerCompany missing %q:\n%s", want, out)
		}
	}
}
