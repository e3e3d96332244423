package anneal

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// forkableTour wraps tour with deep-copy support so it can drive the
// portfolio engine in tests.
type forkableTour struct {
	tour
}

func newForkableTour(n int, seed int64) *forkableTour {
	return &forkableTour{tour: *newTour(n, seed)}
}

func (t *forkableTour) CloneProblem() Problem {
	c := &forkableTour{tour: t.tour}
	c.pts = append([][2]float64(nil), t.pts...)
	c.perm = append([]int(nil), t.perm...)
	return c
}

// tracingTour records its cost after every engine decision, so two runs can
// be compared move by move rather than only at the end.
type tracingTour struct {
	forkableTour
	trace []float64
}

func (t *tracingTour) Accept() {
	t.forkableTour.Accept()
	t.trace = append(t.trace, t.cost)
}

func (t *tracingTour) Reject() {
	t.forkableTour.Reject()
	t.trace = append(t.trace, t.cost)
}

// Driving a Chain step by step must be bit-identical to Run: same move
// sequence, same rng stream, same result fields.
func TestChainMatchesRun(t *testing.T) {
	cfg := Config{Seed: 21, MovesPerTemp: 150, MaxTemps: 50}

	a := &tracingTour{forkableTour: *newForkableTour(18, 5)}
	ra := Run(a, cfg, nil)

	b := &tracingTour{forkableTour: *newForkableTour(18, 5)}
	c := NewChain(b, cfg, nil)
	steps := 0
	for c.Step() {
		steps++
	}
	rb := c.Result()

	if ra != rb {
		t.Errorf("results diverged: Run=%+v Chain=%+v", ra, rb)
	}
	if len(a.trace) != len(b.trace) {
		t.Fatalf("move counts diverged: %d vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("cost trajectory diverged at move %d: %v vs %v", i, a.trace[i], b.trace[i])
		}
	}
	// Warmup plus rb.Temps temperature steps.
	if steps != rb.Temps+1 {
		t.Errorf("Step called %d times for %d temps", steps, rb.Temps)
	}
	if !c.Done() || c.Step() {
		t.Error("finished chain must stay done")
	}
}

// A 1-chain portfolio is exactly the serial engine on the same problem
// value: chain 0 keeps the base seed and the problem is annealed in place.
func TestRunParallelSingleChainMatchesRun(t *testing.T) {
	cfg := Config{Seed: 42, MovesPerTemp: 200, MaxTemps: 60}

	serial := newForkableTour(16, 7)
	rs := Run(serial, cfg, nil)

	par := newForkableTour(16, 7)
	rp := RunParallel(par, ParallelConfig{Config: cfg, Chains: 1}, nil)

	if rs != rp.Result {
		t.Errorf("1-chain portfolio diverged from serial: %+v vs %+v", rs, rp.Result)
	}
	if rp.Champion != 0 || rp.Restarts != 0 {
		t.Errorf("1-chain run reported champion %d, %d restarts", rp.Champion, rp.Restarts)
	}
	if rp.Best != Problem(par) {
		t.Error("1-chain run must anneal the given problem in place")
	}
	if len(rp.PerChain) != 1 || rp.PerChain[0] != rs {
		t.Errorf("PerChain = %+v", rp.PerChain)
	}
}

// The worker count (and GOMAXPROCS) is pure scheduling: a K-chain run must
// produce identical results for any worker count.
func TestRunParallelWorkerCountInvariant(t *testing.T) {
	cfg := ParallelConfig{
		Config:    Config{Seed: 11, MovesPerTemp: 120, MaxTemps: 40},
		Chains:    5,
		SyncTemps: 4,
	}
	run := func(workers, maxprocs int) ParallelResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		c := cfg
		c.Workers = workers
		return RunParallel(newForkableTour(20, 3), c, nil)
	}
	ref := run(1, 1)
	for _, w := range []int{2, 5, 16} {
		got := run(w, 4)
		if got.Result != ref.Result || got.Champion != ref.Champion || got.Restarts != ref.Restarts {
			t.Errorf("workers=%d diverged: %+v vs %+v (champion %d vs %d, restarts %d vs %d)",
				w, got.Result, ref.Result, got.Champion, ref.Champion, got.Restarts, ref.Restarts)
		}
		for i := range ref.PerChain {
			if got.PerChain[i] != ref.PerChain[i] {
				t.Errorf("workers=%d chain %d diverged: %+v vs %+v", w, i, got.PerChain[i], ref.PerChain[i])
			}
		}
	}
}

// Every onTemp callback must arrive with the right chain index and in
// per-chain step order, and the champion must hold the lowest final cost.
func TestRunParallelCallbacksAndChampion(t *testing.T) {
	cfg := ParallelConfig{
		Config:    Config{Seed: 9, MovesPerTemp: 100, MaxTemps: 30},
		Chains:    3,
		Workers:   2,
		SyncTemps: 5,
	}
	lastStep := make([]int, cfg.Chains)
	for i := range lastStep {
		lastStep[i] = -1
	}
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	res := RunParallel(newForkableTour(14, 2), cfg, func(chain int, p Problem, s TempStats) {
		<-mu
		defer func() { mu <- struct{}{} }()
		if chain < 0 || chain >= cfg.Chains {
			t.Errorf("bad chain index %d", chain)
		}
		if p == nil {
			t.Error("nil problem in callback")
		}
		if s.Step <= lastStep[chain] {
			t.Errorf("chain %d steps out of order: %d after %d", chain, s.Step, lastStep[chain])
		}
		lastStep[chain] = s.Step
	})
	for i, r := range res.PerChain {
		if res.Result.FinalCost > r.FinalCost {
			t.Errorf("champion (%v) worse than chain %d (%v)", res.Result.FinalCost, i, r.FinalCost)
		}
	}
	if res.Champion < 0 || res.Champion >= cfg.Chains {
		t.Errorf("champion index %d out of range", res.Champion)
	}
}

// Elite migration: with aggressive syncing on a multimodal-enough toy, losers
// restart from the champion; the mechanism must fire and never worsen the
// champion's own trajectory cost.
func TestRunParallelMigrationRestarts(t *testing.T) {
	cfg := ParallelConfig{
		Config:    Config{Seed: 30, MovesPerTemp: 80, MaxTemps: 60},
		Chains:    4,
		SyncTemps: 2,
	}
	res := RunParallel(newForkableTour(22, 8), cfg, nil)
	if res.Restarts == 0 {
		t.Error("no elite-migration restarts with 4 chains and SyncTemps=2")
	}
	if res.BestCost > res.FinalCost+1e-9 {
		t.Errorf("best (%v) worse than final (%v)", res.BestCost, res.FinalCost)
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(77, 0) != 77 {
		t.Error("chain 0 must keep the base seed")
	}
	seen := map[int64]int{}
	for c := 0; c < 64; c++ {
		s := DeriveSeed(1, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("chains %d and %d collide on seed %d", prev, c, s)
		}
		seen[s] = c
	}
	// Streams from adjacent chains must actually decorrelate.
	r0 := rand.New(rand.NewSource(DeriveSeed(1, 0)))
	r1 := rand.New(rand.NewSource(DeriveSeed(1, 1)))
	same := 0
	for i := 0; i < 100; i++ {
		if r0.Intn(1000) == r1.Intn(1000) {
			same++
		}
	}
	if same > 10 {
		t.Errorf("adjacent chain streams agree on %d/100 draws", same)
	}
}

// adopt must revive a frozen chain only while temperature budget remains.
func TestChainAdoptRevives(t *testing.T) {
	cfg := Config{Seed: 4, MovesPerTemp: 60, MaxTemps: 2000}
	c := NewChain(newForkableTour(8, 1), cfg, nil)
	for c.Step() {
	}
	if !c.Done() {
		t.Fatal("chain did not finish")
	}
	if c.Temps() >= 2000 {
		t.Fatal("chain never froze; cannot test revival")
	}
	fresh := newForkableTour(8, 99)
	c.adopt(fresh)
	if c.Done() {
		t.Error("adopt with remaining budget must revive the chain")
	}
	if c.Problem() != Problem(fresh) {
		t.Error("adopt did not install the new problem")
	}
}

// panickyTour is a forkableTour whose moves panic after a budget of
// proposals, on the chains whose clone carries a budget.
type panickyTour struct {
	forkableTour
	clones *int // shared count of clones taken from the root
	budget int  // proposals left before the panic; <0 = never panic
}

func (t *panickyTour) Propose(rng *rand.Rand) float64 {
	if t.budget == 0 {
		panic("panicky tour: move exploded")
	}
	if t.budget > 0 {
		t.budget--
	}
	return t.forkableTour.Propose(rng)
}

// CloneProblem arms only the second clone, which RunParallel hands to
// chain 2.
func (t *panickyTour) CloneProblem() Problem {
	*t.clones++
	c := &panickyTour{forkableTour: *t.forkableTour.CloneProblem().(*forkableTour),
		clones: t.clones, budget: -1}
	if *t.clones == 2 {
		c.budget = 50
	}
	return c
}

// A panic inside one chain's moves runs on a pool goroutine, where no caller
// can recover it. RunParallel must instead re-raise it on the caller's
// goroutine, naming the chain and carrying the original value, for any
// worker count.
func TestRunParallelChainPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 3} {
		clones := 0
		root := &panickyTour{forkableTour: *newForkableTour(12, 4), clones: &clones, budget: -1}
		cfg := ParallelConfig{
			Config:    Config{Seed: 9, MovesPerTemp: 40, MaxTemps: 20},
			Chains:    3,
			Workers:   workers,
			SyncTemps: 4,
		}
		v := func() (v any) {
			defer func() { v = recover() }()
			RunParallel(root, cfg, nil)
			return nil
		}()
		err, ok := v.(error)
		if !ok {
			t.Fatalf("workers=%d: recovered %T %v, want an error value", workers, v, v)
		}
		msg := err.Error()
		if !strings.Contains(msg, "chain 2 panicked") || !strings.Contains(msg, "move exploded") ||
			!strings.Contains(msg, "Propose") {
			t.Errorf("workers=%d: panic message lacks chain, value or stack:\n%s", workers, msg)
		}
	}
}
