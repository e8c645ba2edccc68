package logscan_test

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/logscan"
	"repro/internal/maillog"
)

// refParseLine and refParseAll are the serial strings.Fields parser the
// maillog package carried before logscan became the only reader of the
// log. They are the definition of what a log line means: the decoder
// and both scan paths must agree with them on every input.

// refParseLine parses one log line back into an Event.
func refParseLine(line string) (maillog.Event, error) {
	parts := strings.Fields(line)
	if len(parts) < 3 {
		return maillog.Event{}, fmt.Errorf("maillog: short line %q", line)
	}
	t, err := time.Parse("2006-01-02T15:04:05Z", parts[0])
	if err != nil {
		return maillog.Event{}, fmt.Errorf("maillog: bad timestamp in %q: %v", line, err)
	}
	e := maillog.Event{
		Time:    t,
		Company: parts[1],
		Kind:    maillog.Kind(parts[2]),
	}
	for _, kv := range parts[3:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return maillog.Event{}, fmt.Errorf("maillog: bad field %q in %q", kv, line)
		}
		if k == "msg" {
			e.MsgID = v
			continue
		}
		e.AddField(k, v)
	}
	return e, nil
}

// refParseAll consumes a log stream, aggregating every parsable line.
// Bad lines are counted, not fatal; a line past logscan.MaxLineLen is
// discarded up to the next newline and counted as one bad line. A real
// read error is returned wrapped with the line number reached,
// alongside the partial aggregate.
func refParseAll(r io.Reader) (*maillog.Aggregate, error) {
	agg := maillog.NewAggregate()
	br := bufio.NewReaderSize(r, logscan.MaxLineLen)
	for {
		chunk, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Oversized line: count it once, discard to the newline.
			agg.Lines++
			agg.BadLines++
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			if err == io.EOF {
				return agg, nil
			}
			if err != nil {
				return agg, fmt.Errorf("maillog: read error after line %d: %w", agg.Lines, err)
			}
			continue
		}
		if line := strings.TrimSpace(string(chunk)); line != "" {
			agg.Lines++
			if e, perr := refParseLine(line); perr != nil {
				agg.BadLines++
			} else {
				agg.Add(e)
			}
		}
		if err == io.EOF {
			return agg, nil
		}
		if err != nil {
			return agg, fmt.Errorf("maillog: read error after line %d: %w", agg.Lines, err)
		}
	}
}
