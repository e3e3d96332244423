package fleet

import (
	"testing"
	"time"
)

// testClock is a hand-advanced time source for deterministic aging tests.
type testClock struct{ now time.Time }

func newTestClock() *testClock {
	return &testClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *testClock) Now() time.Time          { return c.now }
func (c *testClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func drain(t *testing.T, s *Scheduler[string], n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		v, ok := s.TryDequeue()
		if !ok {
			t.Fatalf("TryDequeue %d/%d: queue empty, got %v", i+1, n, out)
		}
		out = append(out, v)
	}
	return out
}

func wantOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dequeued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v (diverges at %d)", got, want, i)
		}
	}
}

// TestParsePriority pins the wire vocabulary: the three classes, the empty
// default, and a hard error for anything else.
func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want Priority
		ok   bool
	}{
		{"", PriorityNormal, true},
		{"low", PriorityLow, true},
		{"normal", PriorityNormal, true},
		{"high", PriorityHigh, true},
		{"urgent", 0, false},
		{"HIGH", 0, false},
		{"0", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePriority(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePriority(%q) accepted; want error", c.in)
		}
	}
	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		back, err := ParsePriority(p.String())
		if err != nil || back != p {
			t.Errorf("String/Parse round trip broke for %v: %v, %v", p, back, err)
		}
	}
}

// TestSchedulerSingleClientFIFO pins the compatibility contract: one client
// submitting at one priority sees exactly the FIFO the scheduler replaced.
func TestSchedulerSingleClientFIFO(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{})
	for _, v := range []string{"a", "b", "c", "d", "e"} {
		if !s.TryEnqueue(v, PriorityNormal, "cli") {
			t.Fatalf("enqueue %q rejected", v)
		}
	}
	wantOrder(t, drain(t, s, 5), []string{"a", "b", "c", "d", "e"})
}

// TestSchedulerPriorityOrdering: higher classes drain first regardless of
// arrival order; FIFO within a class.
func TestSchedulerPriorityOrdering(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{Clock: newTestClock().Now})
	s.TryEnqueue("low1", PriorityLow, "cli")
	s.TryEnqueue("norm1", PriorityNormal, "cli")
	s.TryEnqueue("high1", PriorityHigh, "cli")
	s.TryEnqueue("low2", PriorityLow, "cli")
	s.TryEnqueue("high2", PriorityHigh, "cli")
	s.TryEnqueue("norm2", PriorityNormal, "cli")
	wantOrder(t, drain(t, s, 6),
		[]string{"high1", "high2", "norm1", "norm2", "low1", "low2"})
}

// TestSchedulerAgingPromotion: a low job under a steady high-priority storm
// is promoted one class per AgingStep and gets served instead of starving.
func TestSchedulerAgingPromotion(t *testing.T) {
	clk := newTestClock()
	s := NewScheduler[string](SchedulerConfig{AgingStep: time.Second, Clock: clk.Now})
	s.TryEnqueue("victim", PriorityLow, "slow")

	served := -1
	for round := 1; round <= 6; round++ {
		clk.Advance(time.Second)
		s.TryEnqueue("storm", PriorityHigh, "fast")
		if v, ok := s.TryDequeue(); !ok {
			t.Fatalf("round %d: queue empty", round)
		} else if v == "victim" {
			served = round
			break
		}
	}
	// Two steps promote low → high; WRR admits the victim's client within a
	// round or two of that. Without aging it would never be served here.
	if served < 0 {
		t.Fatalf("low job starved through 6 rounds of high-priority storm")
	}
	if served < 3 {
		t.Fatalf("low job served in round %d, before it could have aged to high", served)
	}
}

// TestSchedulerAgingDisabled: a negative AgingStep turns promotion off.
func TestSchedulerAgingDisabled(t *testing.T) {
	clk := newTestClock()
	s := NewScheduler[string](SchedulerConfig{AgingStep: -1, Clock: clk.Now})
	s.TryEnqueue("low", PriorityLow, "cli")
	clk.Advance(24 * time.Hour)
	s.TryEnqueue("high", PriorityHigh, "cli")
	wantOrder(t, drain(t, s, 2), []string{"high", "low"})
}

// TestSchedulerFairness: three clients with queued backlogs are served
// round-robin — no client waits for another's backlog to drain.
func TestSchedulerFairness(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{Clock: newTestClock().Now})
	for _, cli := range []string{"a", "b", "c"} {
		for i := 0; i < 3; i++ {
			s.TryEnqueue(cli, PriorityNormal, cli)
		}
	}
	wantOrder(t, drain(t, s, 9),
		[]string{"a", "b", "c", "a", "b", "c", "a", "b", "c"})
}

// TestSchedulerCapacity: TryEnqueue bounds the queue; EnqueueFront (the
// lease-expiry path) deliberately does not, and its item is served next.
func TestSchedulerCapacity(t *testing.T) {
	clk := newTestClock()
	s := NewScheduler[string](SchedulerConfig{Capacity: 2, Clock: clk.Now})
	if !s.TryEnqueue("a", PriorityNormal, "cli") || !s.TryEnqueue("b", PriorityNormal, "cli") {
		t.Fatal("enqueue under capacity rejected")
	}
	if s.TryEnqueue("c", PriorityNormal, "cli") {
		t.Fatal("enqueue beyond capacity accepted")
	}
	s.EnqueueFront("retry", PriorityNormal, "cli", clk.Now())
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d after front push past capacity, want 3", got)
	}
	wantOrder(t, drain(t, s, 3), []string{"retry", "a", "b"})
}

// TestSchedulerEnqueueFrontCrossClient: a re-enqueued job is the very next
// dequeue even when other clients have queued work.
func TestSchedulerEnqueueFrontCrossClient(t *testing.T) {
	clk := newTestClock()
	s := NewScheduler[string](SchedulerConfig{Clock: clk.Now})
	s.TryEnqueue("other1", PriorityNormal, "other")
	s.TryEnqueue("other2", PriorityNormal, "other")
	s.EnqueueFront("retry", PriorityNormal, "victim", clk.Now())
	if v, ok := s.TryDequeue(); !ok || v != "retry" {
		t.Fatalf("first dequeue after EnqueueFront = %q, want retry", v)
	}
}

// TestSchedulerBlockingDequeue: Dequeue parks until an enqueue arrives and
// returns false once stopped.
func TestSchedulerBlockingDequeue(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{})
	got := make(chan string, 1)
	go func() {
		v, ok := s.Dequeue(nil)
		if ok {
			got <- v
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the goroutine park
	s.TryEnqueue("x", PriorityHigh, "cli")
	select {
	case v := <-got:
		if v != "x" {
			t.Fatalf("blocked Dequeue woke with %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Dequeue never woke after enqueue")
	}

	stop := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Dequeue(stop)
		done <- ok
	}()
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("stopped Dequeue reported an item")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Dequeue ignored stop")
	}

	s.Close()
	if _, ok := s.Dequeue(nil); ok {
		t.Fatal("Dequeue on closed scheduler reported an item")
	}
	if s.TryEnqueue("y", PriorityNormal, "cli") {
		t.Fatal("enqueue accepted after Close")
	}
}

// TestSchedulerDepths: the observability snapshot counts by class and client.
func TestSchedulerDepths(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{Clock: newTestClock().Now})
	s.TryEnqueue("1", PriorityHigh, "a")
	s.TryEnqueue("2", PriorityNormal, "a")
	s.TryEnqueue("3", PriorityNormal, "b")
	s.TryEnqueue("4", PriorityLow, "b")
	d := s.Depths()
	if d.Total != 4 {
		t.Fatalf("Total = %d, want 4", d.Total)
	}
	if d.ByClass["high"] != 1 || d.ByClass["normal"] != 2 || d.ByClass["low"] != 1 {
		t.Fatalf("ByClass = %v", d.ByClass)
	}
	if d.ByClient["a"] != 2 || d.ByClient["b"] != 2 {
		t.Fatalf("ByClient = %v", d.ByClient)
	}
}

// TestSchedulerTryEnqueueAll pins the group admission contract: a batch
// lands whole (per-item classes respected, FIFO within a class) or not at
// all — a batch that would exceed capacity leaves the queue untouched, and
// mismatched inputs or a closed scheduler admit nothing.
func TestSchedulerTryEnqueueAll(t *testing.T) {
	s := NewScheduler[string](SchedulerConfig{Capacity: 4, Clock: newTestClock().Now})
	if !s.TryEnqueueAll([]string{"a", "b", "c"},
		[]Priority{PriorityNormal, PriorityHigh, PriorityNormal}, "cli") {
		t.Fatal("in-capacity batch rejected")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d after batch, want 3", s.Len())
	}

	// 2 more items would exceed capacity 4: nothing may land.
	if s.TryEnqueueAll([]string{"d", "e"}, []Priority{PriorityLow, PriorityLow}, "cli") {
		t.Fatal("over-capacity batch accepted")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d after rejected batch, want 3 (partial admission)", s.Len())
	}

	// Mismatched classes are a caller bug, refused outright.
	if s.TryEnqueueAll([]string{"d", "e"}, []Priority{PriorityLow}, "cli") {
		t.Fatal("mismatched vs/pris accepted")
	}

	// A batch that exactly fills the queue is fine, and per-item classes hold:
	// the high member drains before the normals, which keep submission order.
	if !s.TryEnqueueAll([]string{"d"}, []Priority{PriorityHigh, PriorityHigh}[:1], "cli") {
		t.Fatal("exact-fit batch rejected")
	}
	wantOrder(t, drain(t, s, 4), []string{"b", "d", "a", "c"})

	s.Close()
	if s.TryEnqueueAll([]string{"z"}, []Priority{PriorityNormal}, "cli") {
		t.Fatal("batch accepted after Close")
	}
}

// TestSchedulerAgingStepAccessor: the accessor reports the defaulted quantum
// and the disabled state, matching what /statsz publishes.
func TestSchedulerAgingStepAccessor(t *testing.T) {
	if got := NewScheduler[string](SchedulerConfig{}).AgingStep(); got != DefaultAgingStep {
		t.Errorf("default AgingStep = %v, want %v", got, DefaultAgingStep)
	}
	if got := NewScheduler[string](SchedulerConfig{AgingStep: 5 * time.Second}).AgingStep(); got != 5*time.Second {
		t.Errorf("AgingStep = %v, want 5s", got)
	}
	if got := NewScheduler[string](SchedulerConfig{AgingStep: -1}).AgingStep(); got > 0 {
		t.Errorf("disabled AgingStep = %v, want non-positive", got)
	}
}
