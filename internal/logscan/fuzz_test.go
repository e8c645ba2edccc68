package logscan_test

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/logscan"
	"repro/internal/maillog"
)

// TestEncodeDecodeRoundTrip mirrors PR 4's encoder fuzz from the decode
// side: 2000 seeded-random events are rendered with AppendFormat,
// decoded with ParseLineBytes, and re-rendered — the second rendering
// must be byte-identical to the first, proving the zero-copy decoder
// loses nothing the zero-alloc encoder writes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tok := func() string {
		const alpha = "abcdefghijklmnopqrstuvwxyz0123456789.-;@"
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	kinds := []maillog.Kind{
		maillog.KindMTAAccept, maillog.KindMTADrop, maillog.KindDispatch,
		maillog.KindFilterDrop, maillog.KindChallenge, maillog.KindDeliver,
		maillog.KindWebVisit, maillog.KindWebSolve, maillog.KindDegraded,
		maillog.KindReputation, maillog.KindOverload,
	}
	d := logscan.NewDecoder()
	var e maillog.Event
	buf := make([]byte, 0, 256)
	for i := 0; i < 2000; i++ {
		at := time.Date(2010, 7, 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, time.UTC)
		msgID := ""
		if rng.Intn(4) > 0 {
			msgID = "m-" + strconv.Itoa(rng.Intn(1e6))
		}
		// 0..7 distinct fields: inline-only, boundary, and overflow map.
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
		orig := maillog.MakeEvent(at, "co-"+strconv.Itoa(rng.Intn(40)), kinds[rng.Intn(len(kinds))], msgID, kvs...)

		buf = orig.AppendFormat(buf[:0])
		first := string(buf)
		if err := d.ParseLineBytes(buf, &e); err != nil {
			t.Fatalf("case %d: ParseLineBytes(%q): %v", i, first, err)
		}
		if second := string(e.AppendFormat(nil)); second != first {
			t.Fatalf("case %d: round trip drifted:\n first %q\nsecond %q", i, first, second)
		}
	}
}

// FuzzParseLineBytes holds the zero-copy decoder to the serial
// refParseLine as its executable specification: for any ASCII
// input the two must agree on whether the line parses, and on every
// decoded component when it does. Two differences are deliberate, and
// exempt from the classification check, because the writer never
// produces either input:
//   - non-ASCII bytes: strings.Fields treats unicode whitespace as a
//     separator, the byte decoder does not;
//   - a timestamp that is not 20 bytes long: time.Parse also takes a
//     one-digit hour and a fractional second the layout does not name,
//     the decoder takes only the fixed form AppendFormat writes.
func FuzzParseLineBytes(f *testing.F) {
	f.Add([]byte("2010-07-01T10:00:00Z company-03 mta-drop msg=abc reason=unknown-recipient size=900"))
	f.Add([]byte("2010-07-01T10:00:00Z corp reputation msg=m action=fast-path band=trusted score=0.8 keys=a"))
	f.Add([]byte("  2010-12-31T23:59:59Z \t x y a=1  "))
	f.Add([]byte("2010-02-30T10:00:00Z c deliver"))
	f.Add([]byte("garbage"))
	f.Add([]byte(""))
	f.Add([]byte("0000-10-01T0:00:00Z 0 00"))
	f.Add([]byte("2010-07-01T10:00:00.5Z c deliver"))
	f.Add([]byte("2010-07-01T10:00:00Z co\x01\x02mpany\x1f deliver via=\x00x\x7f\tb=1"))
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstRef(t, logscan.NewDecoder(), line)
	})
}

// FuzzParseLineSequence feeds up to three lines through ONE decoder,
// holding each to refParseLine. The decoder carries state from line to
// line — the timestamp and company memos — which a fresh decoder per
// input never exercises: a line must mean the same whatever line came
// before it.
func FuzzParseLineSequence(f *testing.F) {
	f.Add("2010-07-01T10:00:00Z c deliver via=digest", "2010-07-01T10:00:00Z c web-solve", "2010-07-01T10:00:00Z d challenge")
	f.Add("2010-07-01T10:00:00Z c deliver", "2010-07-01T10:00:0xZ c deliver", "2010-07-01T10:00:00 c deliver")
	f.Add("2010-02-28T23:59:59Z c deliver", "2010-02-29T00:00:00Z c deliver", "2010-02-28T23:59:59Z c deliver")
	f.Add("2012-02-28T23:59:59Z c deliver", "2012-02-29T00:00:00Z c deliver", "2012-02-29T00:00:00Z c web-visit")
	f.Add("2010-07-01T10:00:00Z c deliver", "2010-07-01T10:00:01Z c deliver", "2010-07-01T10:00:59Z c deliver")
	f.Add("2010-07-01T10:00:00Z c deliver", "2010-07-01T10:00:60Z c deliver", "2010-07-01T10:00:00Z c")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		d := logscan.NewDecoder()
		for _, line := range []string{a, b, c} {
			checkAgainstRef(t, d, []byte(line))
		}
	})
}

// checkAgainstRef decodes line with d and compares the result with
// refParseLine, within the exemptions FuzzParseLineBytes documents.
func checkAgainstRef(t *testing.T, d *logscan.Decoder, line []byte) {
	t.Helper()
	var got maillog.Event
	gerr := d.ParseLineBytes(line, &got)
	for _, c := range line {
		if c >= 0x80 {
			return
		}
	}
	want, werr := refParseLine(string(line))
	if (gerr == nil) != (werr == nil) {
		if werr == nil && len(strings.Fields(string(line))[0]) != 20 {
			return
		}
		t.Fatalf("classification split on %q: bytes=%v serial=%v", line, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !got.Time.Equal(want.Time) || got.Company != want.Company || got.Kind != want.Kind || got.MsgID != want.MsgID {
		t.Fatalf("header drift on %q: %+v vs %+v", line, got, want)
	}
	// Both render back to the same bytes, fields included.
	if g, w := string(got.AppendFormat(nil)), string(want.AppendFormat(nil)); g != w {
		t.Fatalf("render drift on %q: %q vs %q", line, g, w)
	}
}
