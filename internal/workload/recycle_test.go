package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mail"
	"repro/internal/maillog"
	"repro/internal/overload"
)

// sentinel marks every field of recycleSentinel; no generated message,
// address, subject or IP contains it.
const sentinel = "sentinel-recycled"

// recycleSentinel is what the poison hook copies into each recycled
// message, so anything that kept a pointer to one reads sentinels.
var recycleSentinel = mail.Message{
	ID:            sentinel + "-000001",
	EnvelopeFrom:  mail.Address{Local: sentinel, Domain: sentinel + ".invalid"},
	Rcpt:          mail.Address{Local: sentinel, Domain: sentinel + ".invalid"},
	HeaderFrom:    mail.Address{Local: sentinel, Domain: sentinel + ".invalid"},
	Subject:       sentinel,
	Size:          -1,
	Body:          sentinel,
	ClientIP:      sentinel,
	HeloDomain:    sentinel + ".invalid",
	AutoSubmitted: sentinel,
	Received:      time.Unix(1, 0).UTC(),
}

// recycleConfigs are small fleets whose messages take every path that
// recycles one: greylist drops and retries, admission sheds and
// retries under a surge, and DSNs arriving at the engines.
func recycleConfigs() map[string]Config {
	grey := smallConfig(61)
	grey.UseGreylisting = true

	surge := smallConfig(62)
	surge.Overload = &overload.Config{
		Limit: 2, QueueCapacity: 32, QueueDeadline: 30 * time.Second,
	}
	surge.FaultPlan = &faults.Plan{Name: "surge-latency", Rules: []faults.Rule{
		{Target: "surge", Kind: faults.KindLatency, Latency: faults.Duration(400 * time.Millisecond)},
	}}
	surge.SurgeBursts = []SurgeBurst{{Day: 1, Hour: 10, Hours: 3, Intensity: 10}}

	dsn := smallConfig(63)
	dsn.EmitDSNs = true
	return map[string]Config{"greylisting": grey, "overload+surge": surge, "dsns": dsn}
}

// recycleRun runs cfg for three days with hook applied to every lane's
// free list. It fails t if a digest item (checked at the end of every
// day), a challenge record or a decision-log event carries a sentinel,
// and returns the decision log, a summary of the run's aggregates and
// how many messages sit recycled on the free lists at the end.
func recycleRun(t *testing.T, cfg Config, hook func(*msgFree)) (log []byte, summary string, free int) {
	t.Helper()
	mail.ResetIDCounter()
	var buf bytes.Buffer
	w := maillog.NewWriter(&buf)
	cfg.LogSink = w.Write
	f := NewFleet(cfg)
	for _, ln := range f.lanes {
		hook(&ln.free)
	}
	var sum strings.Builder
	for d := 0; d < 3; d++ {
		f.Run(1)
		for _, c := range f.Companies {
			for _, u := range f.Users(c.Name) {
				for _, it := range c.Engine.PendingForUser(u) {
					if s := fmt.Sprint(it); strings.Contains(s, sentinel) {
						t.Fatalf("day %d: digest item of %s carries a sentinel: %s", d, u, s)
					}
					fmt.Fprintln(&sum, it.MsgID, it.Sender, it.Subject, it.Queued)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(sentinel)) {
		i := bytes.Index(buf.Bytes(), []byte(sentinel))
		t.Fatalf("decision log carries a sentinel near %q", buf.Bytes()[max(0, i-80):i+len(sentinel)])
	}
	for _, r := range f.Net.Records() {
		if s := fmt.Sprint(*r); strings.Contains(s, sentinel) {
			t.Fatalf("challenge record carries a sentinel: %s", s)
		}
		fmt.Fprintln(&sum, *r)
	}
	for _, c := range f.Companies {
		fmt.Fprintln(&sum, c.Name, c.Engine.Metrics(), f.DigestSeries(c.Name))
	}
	fmt.Fprintln(&sum, generated(f), f.Delayed(), f.OverloadStats(), f.Net.UserMailStats())
	for _, ln := range f.lanes {
		free += len(ln.free.list)
	}
	return buf.Bytes(), sum.String(), free
}

// TestRecycledMessagesUnreachable pins the premise of the lanes' free
// lists: a message is recycled only once nothing can read it. Every
// recycled message is filled with sentinels instead of zeros; no digest
// item, challenge record or decision-log event may ever show one, and
// the run must equal one that recycles nothing.
func TestRecycledMessagesUnreachable(t *testing.T) {
	for name, cfg := range recycleConfigs() {
		t.Run(name, func(t *testing.T) {
			poisonLog, poisonSum, free := recycleRun(t, cfg, func(fl *msgFree) { fl.poison = &recycleSentinel })
			if free == 0 {
				t.Fatal("no message was recycled")
			}
			offLog, offSum, _ := recycleRun(t, cfg, func(fl *msgFree) { fl.off = true })
			if !bytes.Equal(poisonLog, offLog) {
				t.Fatalf("decision log differs from a run without recycling:\n%s", firstLineDiff(offLog, poisonLog))
			}
			if poisonSum != offSum {
				t.Fatal("aggregates differ from a run without recycling")
			}
		})
	}
}

// TestDigestSeries pins the Figure 10 input: one digest size per user
// per simulated day, empty digests recorded as zeros, in Users order,
// matching what PendingCount reported at the day's chores, and returned
// as the caller's own slices.
func TestDigestSeries(t *testing.T) {
	f := NewFleet(smallConfig(17))
	if got := f.DigestSeries(f.Companies[0].Name); len(got) != len(f.Users(f.Companies[0].Name)) || len(got[0]) != 0 {
		t.Fatalf("DigestSeries before any day = %v", got)
	}
	if f.DigestSeries("no-such-company") != nil {
		t.Fatal("DigestSeries of an unknown company is not nil")
	}
	const days = 4
	f.Run(days)
	zeros, nonzero := 0, 0
	for _, c := range f.Companies {
		series := f.DigestSeries(c.Name)
		users := f.Users(c.Name)
		if len(series) != len(users) {
			t.Fatalf("%s: %d series for %d users", c.Name, len(series), len(users))
		}
		for i, s := range series {
			if len(s) != days {
				t.Fatalf("%s: %d daily digests, want %d", users[i], len(s), days)
			}
			for _, n := range s {
				if n == 0 {
					zeros++
				} else {
					nonzero++
				}
			}
		}
		// The last chores ran at 23:50. Since then nothing has been
		// quarantined (no traffic batch, retry or DSN in this config),
		// and weeding, expiry and solves only remove mail, so no user
		// has more pending now than their last entry.
		for i, u := range users {
			if got, last := c.Engine.PendingCount(u), series[i][days-1]; got > last {
				t.Fatalf("%s: %d pending now, %d at the last chores", u, got, last)
			}
		}
		// The slices are the caller's: writing one leaves the lane alone.
		series[0][0] = -7
		if again := f.DigestSeries(c.Name); again[0][0] == -7 {
			t.Fatalf("%s: DigestSeries aliases the lane", c.Name)
		}
	}
	if zeros == 0 || nonzero == 0 {
		t.Fatalf("digest sizes: %d zero, %d non-zero; want both", zeros, nonzero)
	}
}
