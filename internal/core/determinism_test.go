package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/layio"
	"repro/internal/netgen"
)

// golden is the exact serial-engine outcome for a fixed design and seed,
// captured before the parallel annealing engine landed. The serial (1-chain)
// path is contractually bit-identical to the historical engine: any change to
// these numbers means the rng stream, the move sequence, or an ordering
// somewhere in the pipeline changed.
type golden struct {
	cfg        Config
	wcd        float64
	finalCost  float64
	temps      int
	totalMoves int
	accepted   int
	annealBest float64
	dyn        int
}

var goldenRuns = []golden{
	{
		cfg:        Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25},
		wcd:        39617.731000000007,
		finalCost:  1,
		temps:      25,
		totalMoves: 3042,
		accepted:   1353,
		annealBest: 0.87185025591758358,
		dyn:        26,
	},
	{
		cfg:        Config{Seed: 4, MovesPerCell: 6, MaxTemps: 60, RangeLimit: true},
		wcd:        35398.376000000004,
		finalCost:  1,
		temps:      37,
		totalMoves: 8892,
		accepted:   3540,
		annealBest: 0.88186076555232296,
		dyn:        38,
	},
}

// TestSerialGoldenValues pins the serial engine bit-for-bit against the
// pre-parallel-engine capture. Float comparisons are exact on purpose.
func TestSerialGoldenValues(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	for i, g := range goldenRuns {
		o, err := New(a, nl, g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := o.Run()
		if r.G != 0 || r.D != 0 {
			t.Errorf("run %d: G=%d D=%d, want fully routed", i, r.G, r.D)
		}
		if r.WCD != g.wcd {
			t.Errorf("run %d: WCD = %.17g, golden %.17g", i, r.WCD, g.wcd)
		}
		if r.FinalCost != g.finalCost {
			t.Errorf("run %d: FinalCost = %.17g, golden %.17g", i, r.FinalCost, g.finalCost)
		}
		if r.Anneal.Temps != g.temps || r.Anneal.TotalMoves != g.totalMoves || r.Anneal.Accepted != g.accepted {
			t.Errorf("run %d: anneal (temps=%d moves=%d accepted=%d), golden (%d, %d, %d)",
				i, r.Anneal.Temps, r.Anneal.TotalMoves, r.Anneal.Accepted, g.temps, g.totalMoves, g.accepted)
		}
		if r.Anneal.BestCost != g.annealBest {
			t.Errorf("run %d: anneal best = %.17g, golden %.17g", i, r.Anneal.BestCost, g.annealBest)
		}
		if len(r.Dynamics) != g.dyn {
			t.Errorf("run %d: %d dynamics samples, golden %d", i, len(r.Dynamics), g.dyn)
		}
		if r.Chains != 0 || r.Restarts != 0 || r.ChainCosts != nil {
			t.Errorf("run %d: serial path reported parallel fields: %+v", i, r)
		}
	}
}

// TestParallelDeterministicAcrossGOMAXPROCS: a K=4 run must reproduce the
// identical final result for a fixed seed across two runs with different
// GOMAXPROCS, which sizes the chain pool — scheduling must never leak into
// results.
func TestParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	run := func(maxprocs int) Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		o, err := New(a, nl, Config{
			Seed: 9, MovesPerCell: 3, MaxTemps: 25,
			Chains: 4, SyncTemps: 4,
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
	if r1.WCD != r2.WCD || r1.FinalCost != r2.FinalCost || r1.G != r2.G || r1.D != r2.D {
		t.Errorf("GOMAXPROCS changed the outcome: (WCD=%.17g cost=%.17g G=%d D=%d) vs (WCD=%.17g cost=%.17g G=%d D=%d)",
			r1.WCD, r1.FinalCost, r1.G, r1.D, r2.WCD, r2.FinalCost, r2.G, r2.D)
	}
	if r1.Champion != r2.Champion || r1.Restarts != r2.Restarts {
		t.Errorf("champion/restarts diverged: (%d,%d) vs (%d,%d)",
			r1.Champion, r1.Restarts, r2.Champion, r2.Restarts)
	}
	if len(r1.ChainCosts) != 4 || len(r2.ChainCosts) != 4 {
		t.Fatalf("chain costs missing: %v vs %v", r1.ChainCosts, r2.ChainCosts)
	}
	for i := range r1.ChainCosts {
		if r1.ChainCosts[i] != r2.ChainCosts[i] {
			t.Errorf("chain %d cost diverged: %.17g vs %.17g", i, r1.ChainCosts[i], r2.ChainCosts[i])
		}
	}
	if r1.Chains != 4 {
		t.Errorf("Chains = %d, want 4", r1.Chains)
	}
}

// TestParallelRunRoutesAndChecks: the champion state of a parallel run is a
// real, fully consistent layout.
func TestParallelRunRoutesAndChecks(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 12, 14))
	o, err := New(a, nl, Config{Seed: 4, MovesPerCell: 6, MaxTemps: 60, Chains: 3, SyncTemps: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := o.Run()
	if !r.FullyRouted {
		t.Fatalf("parallel run not fully routed: G=%d D=%d", r.G, r.D)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	if r.WCD <= 0 {
		t.Error("WCD not positive")
	}
	if r.Champion < 0 || r.Champion >= 3 {
		t.Errorf("champion index %d out of range", r.Champion)
	}
}

// chainGolden is the exact outcome of Run for one configuration, captured
// when Chains > 1 still went through a separate RunParallel method that
// returned the champion optimizer. layoutSHA is the sha256 of the layio
// serialization of the optimizer holding the result — now the receiver.
type chainGolden struct {
	tracks     int
	cfg        Config
	wcd        float64
	finalCost  float64
	temps      int
	totalMoves int
	accepted   int
	annealBest float64
	champion   int
	restarts   int
	chainCosts []float64
	layoutSHA  string
}

var chainGoldens = []chainGolden{
	{
		tracks: 14, cfg: Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25, SyncTemps: 4},
		wcd: 39617.731000000007, finalCost: 1, temps: 25, totalMoves: 3042, accepted: 1353,
		annealBest: 0.87185025591758358,
		layoutSHA:  "9fb31b9b11bee0e27c44ce38923da58eb7991540d65da33f14f9f21d96891ee9",
	},
	{
		tracks: 14, cfg: Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25, SyncTemps: 4, Chains: 1},
		wcd: 39617.731000000007, finalCost: 1, temps: 25, totalMoves: 3042, accepted: 1353,
		annealBest: 0.87185025591758358,
		layoutSHA:  "9fb31b9b11bee0e27c44ce38923da58eb7991540d65da33f14f9f21d96891ee9",
	},
	{
		tracks: 14, cfg: Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25, SyncTemps: 4, Chains: 3},
		wcd: 38183.991000000002, finalCost: 1, temps: 25, totalMoves: 3042, accepted: 1430,
		annealBest: 0.87309296308847018, champion: 0, restarts: 4, chainCosts: []float64{1, 1, 1},
		layoutSHA: "90a6e5eefec97d11d2939bb4632f326b2e999dd196e372135445005ffd71bb45",
	},
	{
		tracks: 14, cfg: Config{Seed: 9, MovesPerCell: 3, MaxTemps: 25, SyncTemps: 4, Chains: 3,
			CritWeight: 1, CritBias: 0.3},
		wcd: 38568.578000000001, finalCost: 2, temps: 25, totalMoves: 3042, accepted: 1228,
		annealBest: 1.7435062462072866, champion: 0, restarts: 2, chainCosts: []float64{2, 2, 2},
		layoutSHA: "e319c9fd9a6ad1f6afe97b7896e6d046ab237bd885db7f663c006c74c75dbe50",
	},
	{
		// Chain 2 wins here, so the receiver must take over a clone's state.
		tracks: 10, cfg: Config{Seed: 5, MovesPerCell: 3, MaxTemps: 25, SyncTemps: 4, Chains: 3},
		wcd: 41223.451000000001, finalCost: 0.99999999999999989, temps: 25, totalMoves: 3042, accepted: 1162,
		annealBest: 0.95241926083519091, champion: 2, restarts: 6,
		chainCosts: []float64{1, 1, 0.99999999999999989},
		layoutSHA:  "7df3d8995cd92f9e292fc0cc04c7692cb78f3022a59b107c0144eb13cc834e28",
	},
}

// TestChainGoldenValues pins Run bit-for-bit for one, one explicit and three
// chains (crit off and on). Float comparisons are exact on purpose.
func TestChainGoldenValues(t *testing.T) {
	_, nl := smallDesign(t)
	for i, g := range chainGoldens {
		a := arch.MustNew(arch.Default(5, 12, g.tracks))
		o, err := New(a, nl, g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := o.Run()
		if err := o.Check(); err != nil {
			t.Errorf("run %d: receiver state inconsistent: %v", i, err)
		}
		if r.WCD != g.wcd || r.FinalCost != g.finalCost {
			t.Errorf("run %d: WCD = %.17g cost = %.17g, golden %.17g / %.17g", i, r.WCD, r.FinalCost, g.wcd, g.finalCost)
		}
		if r.Anneal.Temps != g.temps || r.Anneal.TotalMoves != g.totalMoves || r.Anneal.Accepted != g.accepted ||
			r.Anneal.BestCost != g.annealBest {
			t.Errorf("run %d: anneal (temps=%d moves=%d accepted=%d best=%.17g), golden (%d, %d, %d, %.17g)",
				i, r.Anneal.Temps, r.Anneal.TotalMoves, r.Anneal.Accepted, r.Anneal.BestCost,
				g.temps, g.totalMoves, g.accepted, g.annealBest)
		}
		wantChains := 0
		if g.cfg.Chains > 1 {
			wantChains = g.cfg.Chains
		}
		if r.Chains != wantChains || r.Champion != g.champion || r.Restarts != g.restarts ||
			!slices.Equal(r.ChainCosts, g.chainCosts) || (r.ChainCosts == nil) != (g.chainCosts == nil) {
			t.Errorf("run %d: chains=%d champion=%d restarts=%d costs=%v, golden %d/%d/%d/%v",
				i, r.Chains, r.Champion, r.Restarts, r.ChainCosts, wantChains, g.champion, g.restarts, g.chainCosts)
		}
		var buf bytes.Buffer
		if err := layio.Write(&buf, o.P, o.Rts); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != g.layoutSHA {
			t.Errorf("run %d: layout sha256 %x, golden %s", i, sum, g.layoutSHA)
		}
	}
}
