package overload

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/maillog"
)

var simStart = time.Date(2010, 7, 1, 0, 0, 0, 0, time.UTC)

func simController(t *testing.T, cfg Config) (*Controller, *clock.Sim, *[]maillog.Event) {
	t.Helper()
	clk := clock.NewSim(simStart)
	events := &[]maillog.Event{}
	cfg.Clock = clk
	cfg.Name = "test-co"
	cfg.EventSink = func(e maillog.Event) { *events = append(*events, e) }
	return New(cfg), clk, events
}

func TestImmediateAdmission(t *testing.T) {
	c, _, _ := simController(t, Config{InitialLimit: 2})
	o1 := c.Submit("m1", nil, nil)
	o2 := c.Submit("m2", nil, nil)
	if o1.Granted == nil || o2.Granted == nil {
		t.Fatalf("expected both admitted: %+v %+v", o1, o2)
	}
	if got := c.Metrics().InFlight; got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	o1.Granted.Release()
	if got := c.Metrics().InFlight; got != 1 {
		t.Fatalf("InFlight after release = %d, want 1", got)
	}
	o1.Granted.Release() // double release is a no-op
	if got := c.Metrics().InFlight; got != 1 {
		t.Fatalf("InFlight after double release = %d, want 1", got)
	}
}

func TestQueueingAndFIFOGrant(t *testing.T) {
	c, clk, _ := simController(t, Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 4, QueueDeadline: time.Minute})
	o1 := c.Submit("m1", nil, nil)
	if o1.Granted == nil {
		t.Fatal("first submit not admitted")
	}
	var granted []string
	mk := func(id string) (func(*Grant, time.Duration), func(Reason)) {
		return func(g *Grant, _ time.Duration) {
				granted = append(granted, id)
				g.Release()
			}, func(r Reason) {
				t.Errorf("unexpected shed of %s: %s", id, r)
			}
	}
	for _, id := range []string{"q1", "q2", "q3"} {
		on, sh := mk(id)
		o := c.Submit(id, on, sh)
		if !o.Queued {
			t.Fatalf("submit %s: not queued: %+v", id, o)
		}
	}
	if d := c.Metrics().QueueDepth; d != 3 {
		t.Fatalf("QueueDepth = %d, want 3", d)
	}
	clk.Advance(10 * time.Millisecond)
	// Releasing the held grant cascades: q1 granted, its callback
	// releases, q2 granted, and so on — strict FIFO.
	o1.Granted.Release()
	want := []string{"q1", "q2", "q3"}
	if fmt.Sprint(granted) != fmt.Sprint(want) {
		t.Fatalf("grant order = %v, want %v", granted, want)
	}
	m := c.Metrics()
	if m.AdmittedQueued != 3 || m.AdmittedNow != 1 {
		t.Fatalf("admitted now/queued = %d/%d, want 1/3", m.AdmittedNow, m.AdmittedQueued)
	}
}

func TestQueueFullSheds(t *testing.T) {
	c, _, events := simController(t, Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 2, QueueDeadline: time.Minute})
	c.Submit("held", nil, nil)
	c.Submit("q1", nil, nil)
	c.Submit("q2", nil, nil)
	o := c.Submit("spill", nil, nil)
	if o.Granted != nil || o.Queued || o.Reason != ReasonQueueFull {
		t.Fatalf("expected queue-full shed, got %+v", o)
	}
	m := c.Metrics()
	if m.Shed[ReasonQueueFull] != 1 || m.MaxQueueDepth != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	if len(*events) != 1 {
		t.Fatalf("events = %d, want 1", len(*events))
	}
	e := (*events)[0]
	if e.Kind != maillog.KindOverload || e.MsgID != "spill" || e.Field("reason") != "queue-full" {
		t.Fatalf("bad event: %s", e.AppendFormat(nil))
	}
}

func TestDeadlineShedding(t *testing.T) {
	c, clk, events := simController(t, Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 4, QueueDeadline: 30 * time.Second})
	held := c.Submit("held", nil, nil)
	var sheds []Reason
	o := c.Submit("late", func(g *Grant, _ time.Duration) {
		t.Error("late should never be granted")
		g.Release()
	}, func(r Reason) { sheds = append(sheds, r) })
	if !o.Queued {
		t.Fatalf("not queued: %+v", o)
	}
	clk.Advance(31 * time.Second)
	c.Expire()
	if len(sheds) != 1 || sheds[0] != ReasonDeadline {
		t.Fatalf("sheds = %v, want [deadline]", sheds)
	}
	// The expired ticket is gone: releasing the held grant grants nothing.
	held.Granted.Release()
	if len(sheds) != 1 {
		t.Fatalf("sheds after release = %v", sheds)
	}
	found := false
	for _, e := range *events {
		if e.MsgID == "late" && e.Field("reason") == "deadline" {
			found = true
		}
	}
	if !found {
		t.Fatal("no deadline overload event for msg late")
	}
}

func TestDeadlineShedOnLateGrant(t *testing.T) {
	// A queued ticket whose deadline passes is shed at grant time too
	// (never half-processed), even without an explicit Expire call.
	c, clk, _ := simController(t, Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 4, QueueDeadline: 10 * time.Second})
	held := c.Submit("held", nil, nil)
	shed := false
	c.Submit("late", func(g *Grant, _ time.Duration) {
		t.Error("granted past deadline")
		g.Release()
	}, func(r Reason) {
		if r != ReasonDeadline {
			t.Errorf("reason = %s", r)
		}
		shed = true
	})
	clk.Advance(time.Minute)
	held.Granted.Release()
	if !shed {
		t.Fatal("expired ticket not shed on release")
	}
}

func TestAIMD(t *testing.T) {
	c, clk, _ := simController(t, Config{
		InitialLimit: 10, MinLimit: 2, MaxLimit: 20,
		TargetLatency: 100 * time.Millisecond,
	})
	// Over-target latency: multiplicative decrease, 10 × 0.7.
	c.Observe(500 * time.Millisecond)
	if l := int(c.Metrics().Limit); l != 7 {
		t.Fatalf("limit after backoff = %d, want 7", l)
	}
	// Second congestion signal inside the cooldown is ignored.
	c.Observe(500 * time.Millisecond)
	if l := int(c.Metrics().Limit); l != 7 {
		t.Fatalf("limit in cooldown = %d, want 7", l)
	}
	// Past the cooldown (TargetLatency) each signal backs off again:
	// 4.9, 3.43, 2.401, then the floor.
	for i, want := range []int{4, 3, 2, 2} {
		clk.Advance(time.Second)
		c.Observe(500 * time.Millisecond)
		if l := int(c.Metrics().Limit); l != want {
			t.Fatalf("limit after backoff %d = %d, want %d", i+2, l, want)
		}
	}
	if l := c.Metrics().Limit; l != 2 {
		t.Fatalf("limit below floor: %v", l)
	}
	// Additive increase: many fast completions grow the limit.
	for i := 0; i < 1000; i++ {
		c.Observe(10 * time.Millisecond)
	}
	if l := int(c.Metrics().Limit); l != 20 {
		t.Fatalf("limit after recovery = %d, want ceiling 20", l)
	}
	m := c.Metrics()
	if m.Decreases != 5 {
		t.Fatalf("decreases = %d, want 5", m.Decreases)
	}
}

func TestReleaseFeedsAIMD(t *testing.T) {
	c, clk, _ := simController(t, Config{
		InitialLimit: 8, MinLimit: 2,
		TargetLatency: 100 * time.Millisecond,
	})
	o := c.Submit("slow", nil, nil)
	clk.Advance(time.Second) // service took 1s > 100ms target
	o.Granted.Release()
	if l := int(c.Metrics().Limit); l != 5 {
		t.Fatalf("limit = %d, want 5 (8 × 0.7) after one backoff", l)
	}
}

func TestDrain(t *testing.T) {
	c, _, events := simController(t, Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 4, QueueDeadline: time.Minute})
	held := c.Submit("held", nil, nil)
	var reason Reason
	c.Submit("queued", func(g *Grant, _ time.Duration) {
		t.Error("granted during drain")
		g.Release()
	}, func(r Reason) { reason = r })
	c.StartDrain()
	if reason != ReasonDraining {
		t.Fatalf("queued ticket reason = %q, want draining", reason)
	}
	if o := c.Submit("new", nil, nil); o.Granted != nil || o.Queued || o.Reason != ReasonDraining {
		t.Fatalf("submit during drain = %+v", o)
	}
	// In-flight work still completes.
	held.Granted.Release()
	if got := c.Metrics().InFlight; got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	if !c.Draining() {
		t.Fatal("not draining")
	}
	n := 0
	for _, e := range *events {
		if e.Kind == maillog.KindOverload && e.Field("reason") == "draining" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("draining events = %d, want 2", n)
	}
}

func TestCancel(t *testing.T) {
	c, _, _ := simController(t, Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 4, QueueDeadline: time.Minute})
	held := c.Submit("held", nil, nil)
	o := c.Submit("waiting", func(g *Grant, _ time.Duration) {
		t.Error("granted after cancel")
		g.Release()
	}, func(Reason) { t.Error("shed callback after cancel") })
	if !c.Cancel(o) {
		t.Fatal("cancel failed")
	}
	if c.Cancel(o) {
		t.Fatal("double cancel succeeded")
	}
	held.Granted.Release() // must not grant the cancelled ticket
	if m := c.Metrics(); m.Shed[ReasonDeadline] != 1 {
		t.Fatalf("shed = %+v", m.Shed)
	}
}

func TestPressured(t *testing.T) {
	c, _, _ := simController(t, Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 4, QueueDeadline: time.Minute})
	if c.Pressured() {
		t.Fatal("pressured while idle")
	}
	c.Submit("held", nil, nil)
	c.Submit("q1", nil, nil)
	if c.Pressured() {
		t.Fatal("pressured at 1/4 queue")
	}
	c.Submit("q2", nil, nil)
	if !c.Pressured() {
		t.Fatal("not pressured at half queue")
	}
}

func TestDelayHistogramQuantile(t *testing.T) {
	c, clk, _ := simController(t, Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 100, QueueDeadline: time.Hour})
	held := c.Submit("held", nil, nil)
	for i := 0; i < 10; i++ {
		c.Submit(fmt.Sprintf("q%d", i), func(g *Grant, _ time.Duration) { g.Release() }, nil)
	}
	clk.Advance(3 * time.Second)
	held.Granted.Release() // all 10 granted after 3s wait
	m := c.Metrics()
	// 1 immediate (0 wait) + 10 waited 3s: p50 and p99 land in the 5s bucket.
	if q := m.DelayQuantile(0.99); q != 5*time.Second {
		t.Fatalf("p99 = %v, want 5s bucket bound", q)
	}
	if q := m.DelayQuantile(0.0); q != time.Millisecond {
		t.Fatalf("p0 = %v, want 1ms bucket bound", q)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := Metrics{Limit: 10, AdmittedNow: 5, MaxQueueDepth: 3,
		Shed: map[Reason]int64{ReasonLimit: 2}}
	b := Metrics{Limit: 4, AdmittedQueued: 7, MaxQueueDepth: 9,
		Shed: map[Reason]int64{ReasonLimit: 1, ReasonDeadline: 4}}
	var m Metrics
	m.Merge(a)
	m.Merge(b)
	if m.Limit != 4 || m.Admitted() != 12 || m.MaxQueueDepth != 9 {
		t.Fatalf("merged: %+v", m)
	}
	if m.ShedTotal() != 7 || m.Shed[ReasonDeadline] != 4 {
		t.Fatalf("merged sheds: %+v", m.Shed)
	}
}

func TestWaitRealClock(t *testing.T) {
	// Wait is the live-gateway path: real clock, real goroutines.
	c := New(Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 2, QueueDeadline: 200 * time.Millisecond})
	g, _, ok := c.Wait("first")
	if !ok {
		t.Fatal("first Wait refused")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	got := make(chan bool, 1)
	go func() {
		defer wg.Done()
		g2, _, ok2 := c.Wait("second")
		got <- ok2
		if ok2 {
			g2.Release()
		}
	}()
	// Give the waiter time to queue, then free the slot.
	for c.Metrics().QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	g.Release()
	wg.Wait()
	if !<-got {
		t.Fatal("queued Wait was not granted after release")
	}
}

func TestWaitDeadlineTimeout(t *testing.T) {
	c := New(Config{InitialLimit: 1, MinLimit: 1, QueueCapacity: 2, QueueDeadline: 50 * time.Millisecond})
	g, _, ok := c.Wait("held")
	if !ok {
		t.Fatal("first Wait refused")
	}
	defer g.Release()
	_, reason, ok := c.Wait("starved")
	if ok || reason != ReasonDeadline {
		t.Fatalf("Wait = ok=%v reason=%s, want deadline shed", ok, reason)
	}
}

func TestConcurrentSubmitRelease(t *testing.T) {
	// Hammer the controller from many goroutines under -race.
	c := New(Config{InitialLimit: 4, MaxLimit: 8, QueueCapacity: 16,
		QueueDeadline: time.Second, TargetLatency: time.Hour})
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted, shed := 0, 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				g, _, ok := c.Wait(fmt.Sprintf("w%d-%d", worker, j))
				mu.Lock()
				if ok {
					granted++
				} else {
					shed++
				}
				mu.Unlock()
				if ok {
					g.Release()
				}
			}
		}(i)
	}
	wg.Wait()
	if granted+shed != 1600 {
		t.Fatalf("granted %d + shed %d != 1600", granted, shed)
	}
	if c.Metrics().InFlight != 0 || c.Metrics().QueueDepth != 0 {
		t.Fatalf("leaked state: inflight=%d queue=%d", c.Metrics().InFlight, c.Metrics().QueueDepth)
	}
	m := c.Metrics()
	if m.Admitted() != int64(granted) || m.ShedTotal() != int64(shed) {
		t.Fatalf("metrics disagree: %+v vs granted=%d shed=%d", m, granted, shed)
	}
}
