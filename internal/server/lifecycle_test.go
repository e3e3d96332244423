package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/store"
)

// armFlowPanics makes the next n optimizer runs panic inside the flow, then
// restores the real flow when the test ends (after its servers close).
func armFlowPanics(t *testing.T, n int64) {
	t.Helper()
	var left atomic.Int64
	left.Store(n)
	real := runFlow
	runFlow = func(o *core.Optimizer) core.Result {
		if left.Add(-1) >= 0 {
			panic("injected flow panic")
		}
		return real(o)
	}
	t.Cleanup(func() { runFlow = real })
}

// submitTiny submits a fast tiny-design job with the given seed and returns
// its ID.
func submitTiny(t *testing.T, base string, seed int) string {
	t.Helper()
	body := fmt.Sprintf(`{"design":"tiny","config":{"seed":%d,"moves_per_cell":4,"max_temps":10}}`, seed)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// awaitTerminal polls a job until it reaches a terminal state.
func awaitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkPanicFailure asserts a job failed with a recovered panic's message:
// the value, the stack, and within the fleet's error cap.
func checkPanicFailure(t *testing.T, st JobStatus) {
	t.Helper()
	if st.State != StateFailed || st.Result != nil {
		t.Fatalf("panicking job = %s (result %+v), want failed", st.State, st.Result)
	}
	if !strings.HasPrefix(st.Error, "optimizer panic: injected flow panic") ||
		!strings.Contains(st.Error, "runSpec") || len(st.Error) > maxErrorLen {
		t.Errorf("failure message lacks the panic value or stack, or exceeds %d bytes (%d):\n%s",
			maxErrorLen, len(st.Error), st.Error)
	}
}

// TestRunPanicFailsOnlyThatJob: a run whose flow panics in the in-process
// pool fails that job — with the panic journaled in its failed record and
// nothing cached — and the coordinator goes on to accept and finish the next
// submission.
func TestRunPanicFailsOnlyThatJob(t *testing.T) {
	armFlowPanics(t, 1)
	dir := t.TempDir()
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	hs := httptest.NewServer(s.Handler())

	bad := awaitTerminal(t, hs.URL, submitTiny(t, hs.URL, 1))
	checkPanicFailure(t, bad)
	if n := s.cache.stats().Entries; n != 0 {
		t.Errorf("cache holds %d entries after a panicked run, want 0", n)
	}
	if good := awaitTerminal(t, hs.URL, submitTiny(t, hs.URL, 2)); good.State != StateDone {
		t.Fatalf("next job = %s (error %q), want done", good.State, good.Error)
	}

	hs.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := store.OpenWAL(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var failed *store.Record
	for i := range recs {
		if recs[i].Job == bad.ID && recs[i].Kind == store.KindFailed {
			failed = &recs[i]
		}
	}
	if failed == nil || string(failed.Data) != bad.Error {
		t.Errorf("failed record = %+v, want one carrying the job's error", failed)
	}
}

// TestFleetRunPanicFailsOnlyThatJob: the same panic on a remote worker fails
// the job with the same kind of message, and that worker goes on to lease
// and finish the next job.
func TestFleetRunPanicFailsOnlyThatJob(t *testing.T) {
	armFlowPanics(t, 1)
	s := New(Config{Workers: -1, QueueDepth: 4, LeaseTTL: 2 * time.Second})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(s.Close)
	t.Cleanup(hs.Close)
	base := hs.URL
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: base,
		Name:        "remote",
		Execute:     FleetExecutor(),
		Heartbeat:   50 * time.Millisecond,
		PollWait:    100 * time.Millisecond,
		RetryEvery:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run()
	t.Cleanup(func() {
		w.Kill()
		<-w.Done()
	})

	checkPanicFailure(t, awaitTerminal(t, base, submitTiny(t, base, 1)))
	if good := awaitTerminal(t, base, submitTiny(t, base, 2)); good.State != StateDone {
		t.Fatalf("next job = %s (error %q), want done", good.State, good.Error)
	}
}

// TestPanicErrorFitsTransport: a panic message is valid UTF-8 and within the
// fleet's error cap, so it survives a JSON round trip unchanged.
func TestPanicErrorFitsTransport(t *testing.T) {
	value := "bad \xff byte " + strings.Repeat("é", maxErrorLen)
	msg := panicError(value, []byte("stack")).Error()
	if !utf8.ValidString(msg) || len(msg) > maxErrorLen || len(msg) < maxErrorLen-1 {
		t.Fatalf("message: valid UTF-8 %t, %d bytes (cap %d)", utf8.ValidString(msg), len(msg), maxErrorLen)
	}
	b, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var back string
	if err := json.Unmarshal(b, &back); err != nil || back != msg {
		t.Error("message changed across a JSON round trip")
	}
}
