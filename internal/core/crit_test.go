package core

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/netgen"
)

// TestCritRunDeterministicAndConsistent: a full single-chain run with the
// criticality term and move bias enabled is deterministic for a fixed seed,
// routes completely, and leaves a state that passes the full invariant
// checker (including the crit-sum cross-check).
func TestCritRunDeterministicAndConsistent(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	cfg := Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25, CritWeight: 1, CritBias: 0.3}
	run := func() (Result, *Optimizer) {
		o, err := New(a, nl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o.Run(), o
	}
	r1, o1 := run()
	r2, _ := run()
	if !r1.FullyRouted {
		t.Fatalf("crit-on run not fully routed: G=%d D=%d", r1.G, r1.D)
	}
	if r1.WCD != r2.WCD || r1.FinalCost != r2.FinalCost ||
		r1.Anneal.TotalMoves != r2.Anneal.TotalMoves || r1.Anneal.Accepted != r2.Anneal.Accepted {
		t.Errorf("crit-on run not deterministic: (WCD=%.17g cost=%.17g moves=%d acc=%d) vs (WCD=%.17g cost=%.17g moves=%d acc=%d)",
			r1.WCD, r1.FinalCost, r1.Anneal.TotalMoves, r1.Anneal.Accepted,
			r2.WCD, r2.FinalCost, r2.Anneal.TotalMoves, r2.Anneal.Accepted)
	}
	if err := o1.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCritParallelDeterministicAcrossGOMAXPROCS: the criticality state must
// clone correctly — a multi-chain crit-on run reproduces the identical result
// regardless of scheduling.
func TestCritParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	run := func(maxprocs int) Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		o, err := New(a, nl, Config{
			Seed: 9, MovesPerCell: 3, MaxTemps: 25,
			Chains: 3, SyncTemps: 4,
			CritWeight: 1, CritBias: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := o.Run()
		if err := o.Check(); err != nil {
			t.Fatalf("champion state inconsistent: %v", err)
		}
		return r
	}
	r1 := run(1)
	r2 := run(4)
	if r1.WCD != r2.WCD || r1.FinalCost != r2.FinalCost || r1.Champion != r2.Champion {
		t.Errorf("crit-on parallel run scheduling-dependent: (WCD=%.17g cost=%.17g champ=%d) vs (WCD=%.17g cost=%.17g champ=%d)",
			r1.WCD, r1.FinalCost, r1.Champion, r2.WCD, r2.FinalCost, r2.Champion)
	}
}

// TestCritDefaultsApplied: setting CritWeight alone fills in the dependent
// knobs; leaving it zero keeps every crit field inert.
func TestCritDefaultsApplied(t *testing.T) {
	c := Config{CritWeight: 2}
	c.setDefaults()
	if c.CritDamping != 0.6 || c.CritBias != 0.25 || c.CritThreshold != 0.75 {
		t.Errorf("crit defaults not applied: damping=%v bias=%v threshold=%v", c.CritDamping, c.CritBias, c.CritThreshold)
	}
	z := Config{}
	z.setDefaults()
	if z.CritWeight != 0 || z.CritDamping != 0 || z.CritBias != 0 || z.CritThreshold != 0 {
		t.Errorf("crit-off config gained crit defaults: %+v", z)
	}
}

// TestCritDampingOutOfRangeRejected: the criticality extractor cannot damp
// with a history weight of 1 or more, so New must reject one instead of
// silently running undamped. Negative values still select 0.
func TestCritDampingOutOfRangeRejected(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	for _, d := range []float64{1, 5} {
		if _, err := New(a, nl, Config{Seed: 3, CritWeight: 1, CritDamping: d}); err == nil {
			t.Errorf("CritDamping %g accepted", d)
		}
	}
	for _, d := range []float64{-1, 0.99} {
		if _, err := New(a, nl, Config{Seed: 3, CritWeight: 1, CritDamping: d}); err != nil {
			t.Errorf("CritDamping %g rejected: %v", d, err)
		}
	}
}
