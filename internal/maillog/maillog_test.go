package maillog_test

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dnssim"
	"repro/internal/filters"
	"repro/internal/logscan"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/whitelist"
)

var t0 = time.Date(2010, 7, 1, 10, 0, 0, 0, time.UTC)

// parseLine decodes one line the way every reader of the log does.
func parseLine(line string) (maillog.Event, error) {
	var e maillog.Event
	err := logscan.NewDecoder().ParseLineBytes([]byte(line), &e)
	return e, err
}

// scanLog aggregates a whole log the way logstats does.
func scanLog(t *testing.T, log string) *maillog.Aggregate {
	t.Helper()
	agg, err := logscan.Scan(strings.NewReader(log), logscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestEventFormatParseRoundTrip(t *testing.T) {
	e := maillog.Event{
		Time:    t0,
		Company: "company-03",
		Kind:    maillog.KindMTADrop,
		MsgID:   "m-123",
		Fields:  map[string]string{"reason": "unknown-recipient", "size": "4096"},
	}
	line := string(e.AppendFormat(nil))
	if line != "2010-07-01T10:00:00Z company-03 mta-drop msg=m-123 reason=unknown-recipient size=4096" {
		t.Fatalf("Format = %q", line)
	}
	got, err := parseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(e.Time) || got.Company != e.Company || got.Kind != e.Kind || got.MsgID != e.MsgID {
		t.Fatalf("round trip lost header: %+v", got)
	}
	// The decoder fills the inline pairs, not the Fields map; Field is
	// the storage-agnostic reader.
	if got.Field("reason") != "unknown-recipient" || got.Field("size") != "4096" {
		t.Fatalf("round trip lost fields: %s", got.AppendFormat(nil))
	}
	if got.Fields != nil {
		t.Fatalf("decoder allocated an overflow map for %d fields", got.NumFields())
	}
}

func TestEventFormatDeterministicFieldOrder(t *testing.T) {
	e := maillog.Event{
		Time: t0, Company: "c", Kind: maillog.KindDeliver,
		Fields: map[string]string{"zeta": "1", "alpha": "2", "mid": "3"},
	}
	l1, l2 := string(e.AppendFormat(nil)), string(e.AppendFormat(nil))
	if l1 != l2 {
		t.Fatal("Format not deterministic")
	}
	if !strings.Contains(l1, "alpha=2 mid=3 zeta=1") {
		t.Fatalf("fields not sorted: %q", l1)
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"too short",
		"not-a-time company kind",
		"2010-07-01T10:00:00Z c deliver brokenfield",
	} {
		if _, err := parseLine(bad); err == nil {
			t.Errorf("parseLine(%q) succeeded", bad)
		}
	}
}

func TestWriterAndParseAll(t *testing.T) {
	var sb strings.Builder
	w := maillog.NewWriter(&sb)
	for i, kind := range []maillog.Kind{maillog.KindMTAAccept, maillog.KindDispatch, maillog.KindChallenge} {
		w.Write(maillog.Event{
			Time: t0.Add(time.Duration(i) * time.Second), Company: "corp",
			Kind: kind, MsgID: "m-1",
			Fields: map[string]string{"spool": "gray"},
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("Count = %d", w.Count())
	}

	agg := scanLog(t, sb.String()+"garbage line here that fails parsing but has words\n\n")
	if agg.Lines != 4 || agg.BadLines != 1 {
		t.Fatalf("lines=%d bad=%d", agg.Lines, agg.BadLines)
	}
	tot := agg.Total()
	if tot.Incoming != 1 || tot.Spools["gray"] != 1 || tot.Challenges != 1 {
		t.Fatalf("aggregate = %+v", tot)
	}
	if got := agg.Companies(); len(got) != 1 || got[0] != "corp" {
		t.Fatalf("Companies = %v", got)
	}
}

// TestLogDerivedStatsMatchEngineCounters is the methodology check: the
// statistics reconstructed from the text log must equal the engine's own
// counters — exactly the equivalence the paper's log-based measurement
// relies on.
func TestLogDerivedStatsMatchEngineCounters(t *testing.T) {
	clk := clock.NewSim(t0)
	dns := dnssim.NewServer()
	dns.RegisterMailDomain("example.com", "192.0.2.10")
	dns.AddPTR("192.0.2.10", "mail.example.com")

	var sb strings.Builder
	w := maillog.NewWriter(&sb)

	tokens := map[string]string{} // message ID -> challenge token sent
	eng := core.New(core.Config{
		Name:             "corp",
		Domains:          []string{"corp.example"},
		ChallengeFrom:    mail.MustParseAddress("challenge@corp.example"),
		ChallengeBaseURL: "http://cr.corp.example",
	}, clk, dns, filters.NewChain(filters.NewAntivirus(), filters.NewReverseDNS(dns)),
		whitelist.NewStore(clk), func(ch core.OutboundChallenge) { tokens[ch.MsgID] = ch.Token })
	eng.SetEventSink(w.Write)
	bob := mail.MustParseAddress("bob@corp.example")
	eng.AddUser(bob)
	eng.AddManualWhitelist(bob, mail.MustParseAddress("friend@example.com"))

	send := func(from, to string, ip string) {
		m := &mail.Message{
			ID:           mail.NewID("lg"),
			EnvelopeFrom: mail.MustParseAddress(from),
			Rcpt:         mail.MustParseAddress(to),
			Subject:      "log pipeline test message subject words",
			Size:         3000,
			ClientIP:     ip,
			Received:     clk.Now(),
		}
		eng.Receive(m)
		clk.Advance(time.Minute)
	}

	send("friend@example.com", "bob@corp.example", "192.0.2.10")   // white
	send("stranger@example.com", "bob@corp.example", "192.0.2.10") // gray -> challenge
	send("another@example.com", "bob@corp.example", "203.0.113.9") // gray -> rDNS drop
	send("x@example.com", "ghost@corp.example", "192.0.2.10")      // unknown rcpt

	// Visit + solve the outstanding challenge through the service so the
	// web events flow into the log.
	pending := eng.PendingForUser(bob)
	if len(pending) != 1 {
		t.Fatalf("pending = %d", len(pending))
	}
	token, ok := tokens[pending[0].MsgID]
	if !ok {
		t.Fatal("challenge missing")
	}
	if _, err := eng.Captcha().Visit(token); err != nil {
		t.Fatal(err)
	}
	ans, _ := eng.Captcha().Answer(token)
	if err := eng.Captcha().Solve(token, ans); err != nil {
		t.Fatal(err)
	}

	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	logStats := scanLog(t, sb.String()).Total()
	m := eng.Metrics()

	if logStats.Incoming != m.MTAIncoming {
		t.Errorf("incoming: log %d vs engine %d", logStats.Incoming, m.MTAIncoming)
	}
	if logStats.MTADrops["unknown-recipient"] != m.MTADropped[core.UnknownRecipient] {
		t.Errorf("unknown-rcpt drops: log %d vs engine %d",
			logStats.MTADrops["unknown-recipient"], m.MTADropped[core.UnknownRecipient])
	}
	if logStats.Spools["white"] != m.SpoolWhite || logStats.Spools["gray"] != m.SpoolGray {
		t.Errorf("spools: log %+v vs engine white=%d gray=%d", logStats.Spools, m.SpoolWhite, m.SpoolGray)
	}
	if logStats.FilterDrops["reverse-dns"] != m.FilterDropped["reverse-dns"] {
		t.Errorf("filter drops: log %+v vs engine %+v", logStats.FilterDrops, m.FilterDropped)
	}
	if logStats.Challenges != m.ChallengesSent {
		t.Errorf("challenges: log %d vs engine %d", logStats.Challenges, m.ChallengesSent)
	}
	if logStats.Deliveries["whitelist"] != m.Delivered[core.ViaWhitelist] ||
		logStats.Deliveries["challenge"] != m.Delivered[core.ViaChallenge] {
		t.Errorf("deliveries: log %+v vs engine %+v", logStats.Deliveries, m.Delivered)
	}
	if logStats.WebVisits != 1 || logStats.WebSolves != 1 {
		t.Errorf("web events: visits=%d solves=%d", logStats.WebVisits, logStats.WebSolves)
	}
	if logStats.InBytes != m.MTAInBytes {
		t.Errorf("bytes: log %d vs engine %d", logStats.InBytes, m.MTAInBytes)
	}
	// Derived ratio equality.
	if got, want := logStats.ReflectionRatio(), m.ReflectionRatio(); got != want {
		t.Errorf("reflection ratio: log %v vs engine %v", got, want)
	}
	if logStats.SolveRate() != 1 {
		t.Errorf("solve rate = %v, want 1", logStats.SolveRate())
	}
}

// TestParseLineInlinePairSpill: the decoder keeps up to four fields in the
// inline pairs and spills the rest into the overflow map, and both
// storage forms read back identically.
func TestParseLineInlinePairSpill(t *testing.T) {
	line := "2010-07-01T10:00:00Z corp deliver msg=m-9 a=1 b=2 c=3 d=4 e=5 f=6"
	e, err := parseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumFields() != 6 {
		t.Fatalf("NumFields = %d, want 6", e.NumFields())
	}
	if len(e.Fields) != 2 {
		t.Fatalf("overflow map holds %d fields, want 2 (inline capacity is 4)", len(e.Fields))
	}
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}, {"e", "5"}, {"f", "6"}} {
		if got := e.Field(kv[0]); got != kv[1] {
			t.Errorf("Field(%q) = %q, want %q", kv[0], got, kv[1])
		}
	}
	if got := string(e.AppendFormat(nil)); got != line {
		t.Errorf("round trip = %q, want %q", got, line)
	}
}

// errAfterReader returns a read error once the wrapped reader drains. It
// has no ReadAt, so logscan reads it on the streaming path.
type errAfterReader struct {
	r   io.Reader
	err error
}

func (e *errAfterReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		return n, e.err
	}
	return n, err
}

// TestParseAllErrorCarriesLineNumber: a real read error surfaces wrapped
// with the line number reached, alongside the partial aggregate.
func TestParseAllErrorCarriesLineNumber(t *testing.T) {
	input := "2010-07-01T10:00:00Z corp mta-accept msg=m-1\n" +
		"2010-07-01T10:00:01Z corp challenge msg=m-1\n"
	boom := errors.New("disk on fire")
	agg, err := logscan.Scan(&errAfterReader{r: strings.NewReader(input), err: boom}, logscan.Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
	if agg == nil || agg.Lines != 2 {
		t.Fatalf("partial aggregate missing: %+v", agg)
	}
}

// TestAggregateMerge: splitting a log anywhere and merging the shard
// aggregates reproduces the serial aggregate exactly — the invariant the
// parallel scanner's reduction step rests on.
func TestAggregateMerge(t *testing.T) {
	var sb strings.Builder
	w := maillog.NewWriter(&sb)
	for i := 0; i < 50; i++ {
		co := fmt.Sprintf("corp-%d", i%3)
		w.Write(maillog.MakeEvent(t0.Add(time.Duration(i)*time.Second), co, maillog.KindMTAAccept, fmt.Sprintf("m-%d", i), "size", "100"))
		w.Write(maillog.MakeEvent(t0.Add(time.Duration(i)*time.Second), co, maillog.KindDispatch, fmt.Sprintf("m-%d", i), "spool", "gray"))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(sb.String(), "\n")

	serial := scanLog(t, sb.String())
	for _, cut := range []int{0, 1, 37, len(lines)} {
		merged := maillog.NewAggregate()
		merged.Merge(scanLog(t, strings.Join(lines[:cut], "")))
		merged.Merge(scanLog(t, strings.Join(lines[cut:], "")))
		if !reflect.DeepEqual(merged, serial) {
			t.Fatalf("cut %d: merged shards differ from serial aggregate", cut)
		}
	}
}

// TestBounceAndLoopEventsTally covers the DSN-feedback event kinds: the
// aggregate reconstructs per-class challenge bounce counts and the
// loop-suppression total from the log alone.
func TestBounceAndLoopEventsTally(t *testing.T) {
	var sb strings.Builder
	w := maillog.NewWriter(&sb)
	emit := func(kind maillog.Kind, fields map[string]string) {
		w.Write(maillog.Event{Time: t0, Company: "corp", Kind: kind, MsgID: "m-1", Fields: fields})
	}
	emit(maillog.KindBounce, map[string]string{"class": "no-user", "status": "5.1.1", "domain": "victim.example"})
	emit(maillog.KindBounce, map[string]string{"class": "no-user", "status": "5.1.1", "domain": "other.example"})
	emit(maillog.KindBounce, map[string]string{"class": "blocklisted", "status": "5.7.1", "domain": "strict.example"})
	emit(maillog.KindLoopSuppressed, map[string]string{"from": "challenge@peer.example", "auto": "auto-replied"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tot := scanLog(t, sb.String()).Total()
	if tot.Bounces["no-user"] != 2 || tot.Bounces["blocklisted"] != 1 {
		t.Fatalf("bounces = %v", tot.Bounces)
	}
	if tot.LoopSuppressed != 1 {
		t.Fatalf("loop suppressed = %d", tot.LoopSuppressed)
	}
	// Merge preserves both tallies.
	tot.Merge(scanLog(t, sb.String()).Total())
	if tot.Bounces["no-user"] != 4 || tot.LoopSuppressed != 2 {
		t.Fatalf("merged = %+v", tot)
	}
}
