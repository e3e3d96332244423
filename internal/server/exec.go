// The one execution path: runSpec turns a validated spec into a finished
// JobResult (architect → anneal → route → serialize → stats) and is the one
// place a panicking run is caught. The in-process pool calls it directly;
// FleetExecutor wraps it behind the fleet.Executor signature so cmd/fpgaprw
// (and the e2e harnesses) run leased jobs in another process with the same
// code. Determinism is what makes the whole lease protocol sound: given the
// same spec, runSpec produces bit-identical layout bytes on any worker.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/layio"
	"repro/internal/metrics"
)

// maxErrorLen is the fleet protocol's cap on a completion's error message.
// runSpec keeps its panic messages within it, so a failed job stores the
// same message whichever transport ran it.
const maxErrorLen = 4096

// errCanceled is the outcome of a run stopped by its cancel channel. The
// partial state is never serialized or served.
var errCanceled = errors.New("run canceled")

// runFlow runs a built optimizer. It is a variable only so tests can inject
// a flow that panics.
var runFlow = (*core.Optimizer).RunParallel

// runSpec builds the architecture and optimizer for a validated spec, runs
// the simultaneous flow, and returns the serialized layout with its stats.
// The cancel channel stops the run at the next temperature boundary / sync
// barrier (errCanceled); mc observes every temperature (the job's event hub
// locally, a fleet ProgressBuffer on a remote worker). A panic anywhere in
// the run, including on a parallel chain's goroutine, is returned as an
// error carrying the panic value and stack.
func runSpec(spec *jobSpec, cancel <-chan struct{}, mc metrics.Collector) (res *JobResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, panicError(v, debug.Stack())
		}
	}()
	start := time.Now()
	a, err := exper.ArchFor(spec.nl, spec.req.Tracks)
	if err != nil {
		return nil, fmt.Errorf("architecture: %w", err)
	}
	cfg := spec.coreConfig()
	cfg.Cancel = cancel
	cfg.Metrics = mc
	o, err := core.New(a, spec.nl, cfg)
	if err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	o, r := runFlow(o)
	if r.Cancelled {
		return nil, errCanceled
	}
	var buf bytes.Buffer
	if err := layio.Write(&buf, o.P, o.Rts); err != nil {
		return nil, fmt.Errorf("serialize layout: %w", err)
	}
	return &JobResult{
		Layout: buf.Bytes(),
		Stats: JobStats{
			FullyRouted: r.FullyRouted,
			Unrouted:    r.D,
			GUnrouted:   r.G,
			WCDPs:       r.WCD,
			FinalCost:   r.FinalCost,
			Temps:       r.Anneal.Temps,
			Moves:       r.Anneal.TotalMoves,
			Restarts:    r.Restarts,
			WallMS:      float64(time.Since(start)) / float64(time.Millisecond),
		},
	}, nil
}

// panicError renders a recovered panic as valid UTF-8 cut at a rune boundary
// to maxErrorLen bytes, so the message survives the fleet's JSON transport
// byte for byte.
func panicError(v any, stack []byte) error {
	msg := strings.ToValidUTF8(fmt.Sprintf("optimizer panic: %v\n%s", v, stack), "\uFFFD")
	if len(msg) > maxErrorLen {
		n := maxErrorLen
		for n > 0 && !utf8.RuneStart(msg[n]) {
			n--
		}
		msg = msg[:n]
	}
	return errors.New(msg)
}

// FleetExecutor returns the executor an fpgaprw worker plugs into its lease
// loop: it parses the coordinator's spec with the exact validation the submit
// path used, runs it through runSpec, and reports the layout plus a JobStats
// JSON document as the completion stats.
func FleetExecutor() fleet.Executor {
	return func(specJSON json.RawMessage, cancel <-chan struct{}, progress metrics.Collector) (fleet.ExecResult, error) {
		spec, err := parseJobRequest(specJSON)
		if err != nil {
			return fleet.ExecResult{}, fmt.Errorf("leased spec: %w", err)
		}
		res, err := runSpec(spec, cancel, progress)
		if errors.Is(err, errCanceled) {
			return fleet.ExecResult{Canceled: true}, nil
		}
		if err != nil {
			return fleet.ExecResult{}, err
		}
		stats, err := json.Marshal(res.Stats)
		if err != nil {
			return fleet.ExecResult{}, fmt.Errorf("marshal stats: %w", err)
		}
		return fleet.ExecResult{Layout: res.Layout, Stats: stats}, nil
	}
}
