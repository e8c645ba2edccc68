package maillog

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// timeLayout is RFC3339 without a zone (logs are UTC by convention).
const timeLayout = "2006-01-02T15:04:05Z"

// legacyFormat is the historical fmt/strings.Builder rendering the
// append-based encoder replaced, kept verbatim as the wire-format
// reference: AppendFormat must produce these bytes for every event, so
// logs written by either version parse identically.
func legacyFormat(e Event) string {
	var b strings.Builder
	b.WriteString(e.Time.UTC().Format(timeLayout))
	b.WriteByte(' ')
	b.WriteString(e.Company)
	b.WriteByte(' ')
	b.WriteString(string(e.Kind))
	if e.MsgID != "" {
		b.WriteString(" msg=")
		b.WriteString(e.MsgID)
	}
	fields := e.FieldMap()
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(fields[k])
	}
	return b.String()
}

// allKinds lists every event kind the engine emits.
var allKinds = []Kind{
	KindMTAAccept, KindMTADrop, KindDispatch, KindFilterDrop,
	KindChallenge, KindDeliver, KindWebVisit, KindWebSolve,
	KindDegraded, KindReputation,
}

// kindFields maps each kind to representative field sets (including the
// exact field combinations the engine emits for it).
var kindFields = map[Kind][][]string{
	KindMTAAccept:  {{"from", "a@b.example", "size", "1234"}, {}},
	KindMTADrop:    {{"reason", "unknown-recipient", "size", "900"}, {"reason", "malformed"}},
	KindDispatch:   {{"spool", "gray"}, {"spool", "white"}, {"spool", "black"}},
	KindFilterDrop: {{"filter", "rbl"}, {"filter", "antivirus"}},
	KindChallenge:  {{"to", "sender@remote.example"}},
	KindDeliver:    {{"via", "whitelist"}, {"via", "challenge-solved"}, {"via", "digest"}},
	KindWebVisit:   {{}},
	KindWebSolve:   {{}},
	KindDegraded:   {{"component", "rbl", "mode", "fail-open", "action", "accept"}},
	KindReputation: {{"action", "fast-path", "band", "trusted", "score", "0.812", "keys", "a;d;i"}},
}

// TestAppendFormatMatchesLegacy checks AppendFormat against the legacy
// renderer for every kind and field set, built both ways (MakeEvent
// inline pairs and a plain Fields map).
func TestAppendFormatMatchesLegacy(t *testing.T) {
	at := time.Date(2010, 7, 3, 14, 5, 9, 0, time.UTC)
	for _, kind := range allKinds {
		for _, kvs := range kindFields[kind] {
			inline := MakeEvent(at, "scn-03", kind, "scn-03-000042", kvs...)
			fields := make(map[string]string, len(kvs)/2)
			for i := 0; i+1 < len(kvs); i += 2 {
				fields[kvs[i]] = kvs[i+1]
			}
			mapped := Event{Time: at, Company: "scn-03", Kind: kind,
				MsgID: "scn-03-000042", Fields: fields}
			want := legacyFormat(mapped)
			for _, e := range []Event{inline, mapped} {
				if got := e.Format(); got != want {
					t.Errorf("%s: Format() = %q, want %q", kind, got, want)
				}
				if got := string(e.AppendFormat(nil)); got != want {
					t.Errorf("%s: AppendFormat = %q, want %q", kind, got, want)
				}
			}
		}
	}
}

// TestAppendFormatRoundTrip fuzzes events — random kinds, field counts
// past the inline capacity, non-UTC times, empty msg IDs — and checks
// byte equality with the legacy renderer. The decode half of the round
// trip is logscan's TestEncodeDecodeRoundTrip: this internal test cannot
// import logscan, which imports maillog.
func TestAppendFormatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tok := func() string {
		const alpha = "abcdefghijklmnopqrstuvwxyz0123456789.-;@"
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	zones := []*time.Location{time.UTC, time.FixedZone("plus5", 5*3600), time.FixedZone("minus7", -7*3600)}
	for i := 0; i < 2000; i++ {
		at := time.Date(2010, 7, 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, zones[rng.Intn(len(zones))])
		kind := allKinds[rng.Intn(len(allKinds))]
		msgID := ""
		if rng.Intn(4) > 0 {
			msgID = "m-" + strconv.Itoa(rng.Intn(1e6))
		}
		// 0..7 distinct fields: exercises inline-only, boundary, and
		// overflow-into-map storage.
		nf := rng.Intn(8)
		kvs := make([]string, 0, nf*2)
		seen := map[string]bool{"msg": true}
		for len(kvs)/2 < nf {
			k := tok()
			if seen[k] {
				continue
			}
			seen[k] = true
			kvs = append(kvs, k, tok())
		}
		e := MakeEvent(at, "co-"+strconv.Itoa(rng.Intn(40)), kind, msgID, kvs...)

		want := legacyFormat(e)
		got := string(e.AppendFormat(nil))
		if got != want {
			t.Fatalf("case %d: AppendFormat = %q, want legacy %q", i, got, want)
		}
	}
}

// BenchmarkAppendFormat measures the emit-side encode cost.
func BenchmarkAppendFormat(b *testing.B) {
	e := MakeEvent(time.Date(2010, 7, 3, 14, 0, 0, 0, time.UTC),
		"scn-03", KindMTADrop, "scn-03-004242",
		"reason", "unknown-recipient", "size", "4200")
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = e.AppendFormat(buf[:0])
	}
}
