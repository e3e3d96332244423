package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/metrics"
)

// TestCancelUnsetBitIdentical is the zero-cost contract for the optimizer: a
// run with an open (never-fired) Cancel channel must be bit-identical to a run
// with the field unset — the hook may not consume RNG draws, change any
// decision, or alter the result in any way.
func TestCancelUnsetBitIdentical(t *testing.T) {
	a, nl := smallDesign(t)
	run := func(cancel <-chan struct{}) Result {
		o, err := New(a, nl, Config{Seed: 5, MovesPerCell: 4, MaxTemps: 10, Cancel: cancel})
		if err != nil {
			t.Fatal(err)
		}
		return o.Run()
	}
	plain := run(nil)
	open := run(make(chan struct{}))
	if plain.FinalCost != open.FinalCost || plain.G != open.G || plain.D != open.D ||
		plain.WCD != open.WCD || plain.Anneal != open.Anneal ||
		plain.RepairMoves != open.RepairMoves || plain.RepairFixed != open.RepairFixed {
		t.Errorf("open cancel channel changed the run:\n%+v\nvs\n%+v", plain, open)
	}
	if plain.Cancelled || open.Cancelled {
		t.Error("uncancelled run reported Cancelled")
	}
}

// TestCancelAddsNoMoveAllocations pins that the cancellation hook lives
// entirely outside the per-move path: proposing and resolving moves with an
// armed (open) cancel channel allocates no more than without one.
func TestCancelAddsNoMoveAllocations(t *testing.T) {
	a, nl := smallDesign(t)
	build := func(cancel <-chan struct{}) *Optimizer {
		o, err := New(a, nl, Config{Seed: 11, MovesPerCell: 4, MaxTemps: 8, Cancel: cancel})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	measure := func(o *Optimizer) float64 {
		rng := rand.New(rand.NewSource(99))
		return testing.AllocsPerRun(2000, func() {
			if o.Propose(rng) <= 0 {
				o.Accept()
			} else {
				o.Reject()
			}
		})
	}
	unset := measure(build(nil))
	armed := measure(build(make(chan struct{})))
	if armed > unset {
		t.Errorf("cancel hook added per-move allocations: %.3f armed vs %.3f unset", armed, unset)
	}
}

// TestCancelStopsSerialRun cancels a serial run from the temperature callback
// and checks it stops at the boundary, skips repair, and flags the result.
func TestCancelStopsSerialRun(t *testing.T) {
	a, nl := smallDesign(t)
	cancel := make(chan struct{})
	cancelled := false
	o, err := New(a, nl, Config{Seed: 3, MovesPerCell: 4, MaxTemps: 200, Cancel: cancel,
		Metrics: tempTrigger(func(step int) {
			if step == 3 && !cancelled {
				cancelled = true
				close(cancel)
			}
		})})
	if err != nil {
		t.Fatal(err)
	}
	res := o.Run()
	if !res.Cancelled {
		t.Error("Result.Cancelled not set")
	}
	if res.Anneal.Temps != 3 {
		t.Errorf("stopped after %d temps, want 3", res.Anneal.Temps)
	}
	if res.RepairMoves != 0 {
		t.Errorf("cancelled run still ran %d repair moves", res.RepairMoves)
	}
	// The state left behind is the consistent last-temperature state.
	if err := o.Check(); err != nil {
		t.Errorf("post-cancel state inconsistent: %v", err)
	}
}

// TestCancelStopsParallelRun cancels a portfolio run mid-flight and checks
// prompt, flagged termination with a consistent champion state.
func TestCancelStopsParallelRun(t *testing.T) {
	a, nl := smallDesign(t)
	cancel := make(chan struct{})
	done := make(chan Result, 1)
	o, err := New(a, nl, Config{Seed: 7, MovesPerCell: 8, MaxTemps: 10000,
		Chains: 3, Cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- o.Run() }()
	time.Sleep(30 * time.Millisecond)
	close(cancel)
	select {
	case res := <-done:
		if !res.Cancelled {
			t.Error("parallel Result.Cancelled not set")
		}
		if err := o.Check(); err != nil {
			t.Errorf("post-cancel champion state inconsistent: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel run did not stop within 30s of cancellation")
	}
}

// TestCancelBeforeRepairIsReported closes the cancel channel after the
// anneal has finished but before the repair phase starts. Repair is then
// skipped, so the layout is not the deterministic one for the seed, and the
// result must say so. A cancel that lands after the repair is harmless and
// must leave the run reported as finished.
func TestCancelBeforeRepairIsReported(t *testing.T) {
	_, nl := smallDesign(t)
	a := arch.MustNew(arch.Default(5, 12, 10))
	for _, chains := range []int{0, 3} {
		// run closes the cancel channel when the phase after, if given, ends.
		run := func(after ...metrics.Phase) Result {
			cancel := make(chan struct{})
			cfg := Config{Seed: 3, MovesPerCell: 2, MaxTemps: 6, Chains: chains, Cancel: cancel}
			if len(after) > 0 {
				cfg.Metrics = phaseTrigger(func(p metrics.Phase) {
					if p == after[0] {
						close(cancel)
					}
				})
			}
			o, err := New(a, nl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := o.Run()
			if err := o.Check(); err != nil {
				t.Errorf("chains=%d: state inconsistent: %v", chains, err)
			}
			return res
		}
		full := run()
		if full.Cancelled || full.RepairMoves == 0 || full.D != 0 {
			t.Fatalf("chains=%d: uncancelled run must need and finish repair: cancelled=%t repair=%d D=%d",
				chains, full.Cancelled, full.RepairMoves, full.D)
		}
		cut := run(metrics.PhaseAnneal)
		if !cut.Cancelled {
			t.Errorf("chains=%d: cancel before repair not reported (D=%d, repair moves %d)", chains, cut.D, cut.RepairMoves)
		}
		if cut.RepairMoves != 0 {
			t.Errorf("chains=%d: cancelled run still ran %d repair moves", chains, cut.RepairMoves)
		}
		late := run(metrics.PhaseRepair)
		if late.Cancelled || late.D != full.D || late.FinalCost != full.FinalCost || late.RepairMoves != full.RepairMoves {
			t.Errorf("chains=%d: cancel after repair changed the run: %+v", chains, late)
		}
	}
}

// tempTrigger adapts a step callback into a metrics.Collector so tests can
// fire cancellation from inside the run at an exact temperature boundary.
type tempTrigger func(step int)

func (f tempTrigger) RecordTemp(r metrics.TempRecord) { f(r.Step) }
func (f tempTrigger) RecordPhase(metrics.PhaseRecord) {}
func (f tempTrigger) RecordChain(metrics.ChainRecord) {}

// phaseTrigger adapts a phase callback into a metrics.Collector so tests can
// fire cancellation when a phase ends.
type phaseTrigger func(metrics.Phase)

func (f phaseTrigger) RecordTemp(metrics.TempRecord)     {}
func (f phaseTrigger) RecordPhase(r metrics.PhaseRecord) { f(r.Phase) }
func (f phaseTrigger) RecordChain(metrics.ChainRecord)   {}
