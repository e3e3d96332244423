// Package anneal provides the simulated-annealing engine shared by the
// baseline placer and the simultaneous place-and-route optimizer. The cooling
// schedule is adaptive in the style of Huang, Romeo and
// Sangiovanni-Vincentelli (ICCAD 1986, the paper's reference [4]): the
// starting temperature is derived from the cost spread of an initial random
// walk, each temperature decrement is scaled by the cost standard deviation
// observed at that temperature, and termination is detected from acceptance
// ratio and best-cost stagnation rather than a fixed temperature count.
package anneal

import (
	"math"
	"math/rand"
	"time"
)

// Problem is a state that the engine can perturb. Propose applies a tentative
// move and returns its cost delta; the engine then calls exactly one of
// Accept or Reject.
type Problem interface {
	Cost() float64
	Propose(rng *rand.Rand) float64
	Accept()
	Reject()
}

// The fixed cooling schedule.
const (
	initAccept   = 0.93 // target acceptance probability at T0
	lambda       = 0.7  // cooling aggressiveness λ in T' = T·exp(-λT/σ)
	minDecrement = 0.5  // lower bound on the per-temperature cooling factor
	acceptFloor  = 0.02 // acceptance ratio below which a temperature counts as cold
)

// Config tunes the engine. Zero values select the documented defaults.
type Config struct {
	Seed         int64
	MovesPerTemp int // moves attempted per temperature (size to the problem)
	MaxTemps     int // hard cap on temperature steps (default 400)
	FrozenTemps  int // stop after this many stagnant, cold temperatures (default 4)

	// Cancel, when non-nil, requests early termination: the chain polls it at
	// temperature boundaries only (never inside the move loop) and stops
	// before the next temperature once the channel is closed. The state left
	// behind is the consistent state of the last completed temperature, and
	// Result.Cancelled reports the cut. A nil channel is the no-op default:
	// the boundary poll is a nil-channel select, the move path is untouched,
	// and no RNG draw is added, so results are bit-identical to a build
	// without the hook.
	Cancel <-chan struct{}
}

// cancelled reports whether the cancel channel (possibly nil) has fired.
func cancelled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func (c *Config) setDefaults() {
	if c.MovesPerTemp <= 0 {
		c.MovesPerTemp = 1000
	}
	if c.MaxTemps <= 0 {
		c.MaxTemps = 400
	}
	if c.FrozenTemps <= 0 {
		c.FrozenTemps = 4
	}
}

// TempStats summarizes one temperature step; it drives the Figure-6 style
// dynamics instrumentation.
type TempStats struct {
	Step     int
	Temp     float64
	Moves    int
	Accepted int
	Cost     float64       // cost at end of the temperature
	BestCost float64       // best cost seen so far
	StdCost  float64       // cost standard deviation within the temperature
	Elapsed  time.Duration // wall clock spent in this temperature (reporting only)
}

// AcceptRatio returns the fraction of proposed moves accepted.
func (s TempStats) AcceptRatio() float64 {
	if s.Moves == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Moves)
}

// Result reports a finished run.
type Result struct {
	FinalCost  float64
	BestCost   float64
	Temps      int
	TotalMoves int
	Accepted   int
	Cancelled  bool // run was cut short by Config.Cancel
}

// Run anneals the problem to completion. onTemp, if non-nil, is called after
// every temperature (including the warmup walk, reported as step 0 with the
// starting temperature).
func Run(p Problem, cfg Config, onTemp func(TempStats)) Result {
	c := NewChain(p, cfg, onTemp)
	for c.Step() {
	}
	return c.Result()
}

// Chain is a resumable annealing run: the same loop Run executes, broken into
// explicit temperature steps so that several chains can be advanced in
// lockstep (the parallel portfolio engine synchronizes chains at temperature
// boundaries). Driving a Chain with Step until Done is bit-identical to Run.
type Chain struct {
	p      Problem
	cfg    Config
	rng    *rand.Rand
	onTemp func(TempStats)

	started   bool
	done      bool
	stopped   bool // terminated by Config.Cancel rather than freeze/budget
	temp      float64
	best      float64
	frozen    int
	step      int
	res       Result
	wall      time.Duration // wall clock spent in Step (reporting only)
	adoptions int           // times this chain restarted from a champion
}

// NewChain prepares a chain; no moves are made until the first Step.
func NewChain(p Problem, cfg Config, onTemp func(TempStats)) *Chain {
	cfg.setDefaults()
	return &Chain{p: p, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), onTemp: onTemp}
}

// Done reports whether the chain has terminated (frozen or out of
// temperature budget).
func (c *Chain) Done() bool { return c.done }

// Result reports the chain's run so far.
func (c *Chain) Result() Result {
	r := c.res
	r.FinalCost = c.p.Cost()
	r.BestCost = c.best
	r.Cancelled = c.stopped
	return r
}

// Step advances the chain by one unit — the warmup walk on the first call,
// one full temperature afterwards — and reports whether work was done. It
// returns false once the chain is finished.
func (c *Chain) Step() bool {
	if c.done {
		return false
	}
	if cancelled(c.cfg.Cancel) {
		c.done, c.stopped = true, true
		return false
	}
	start := time.Now()
	defer func() { c.wall += time.Since(start) }()
	if !c.started {
		c.warmup(start)
		return true
	}
	c.step++
	var st stats
	accepted := 0
	bestBefore := c.best
	for i := 0; i < c.cfg.MovesPerTemp; i++ {
		d := c.p.Propose(c.rng)
		if d <= 0 || c.rng.Float64() < math.Exp(-d/c.temp) {
			c.p.Accept()
			accepted++
		} else {
			c.p.Reject()
		}
		cost := c.p.Cost()
		st.add(cost)
		if cost < c.best {
			c.best = cost
		}
	}
	c.res.TotalMoves += c.cfg.MovesPerTemp
	c.res.Accepted += accepted
	c.res.Temps = c.step
	ratio := float64(accepted) / float64(c.cfg.MovesPerTemp)
	improved := c.best < bestBefore
	if c.onTemp != nil {
		c.onTemp(TempStats{Step: c.step, Temp: c.temp, Moves: c.cfg.MovesPerTemp, Accepted: accepted,
			Cost: c.p.Cost(), BestCost: c.best, StdCost: st.std(), Elapsed: time.Since(start)})
	}
	// A temperature is stagnant when it neither improved the best nor
	// shows real cost movement: acceptance collapsed, or all accepted
	// moves were zero-delta plateau wandering.
	if !improved && (ratio < acceptFloor || st.std() == 0) {
		c.frozen++
		if c.frozen >= c.cfg.FrozenTemps {
			c.done = true
			return true
		}
	} else {
		c.frozen = 0
	}
	// Huang et al. adaptive decrement, bounded to avoid quenching.
	dec := math.Exp(-lambda * c.temp / math.Max(st.std(), 1e-9))
	if dec < minDecrement {
		dec = minDecrement
	}
	if dec > 0.995 {
		dec = 0.995
	}
	c.temp *= dec
	if c.step >= c.cfg.MaxTemps {
		c.done = true
	}
	return true
}

// warmup is the initial random walk: accept everything, measure the cost
// spread, derive the starting temperature. start is when the enclosing Step
// began, for the reporting-only Elapsed field.
func (c *Chain) warmup(start time.Time) {
	var warm stats
	for i := 0; i < c.cfg.MovesPerTemp; i++ {
		c.p.Propose(c.rng)
		c.p.Accept()
		warm.add(c.p.Cost())
	}
	sigma := warm.std()
	if sigma <= 0 {
		sigma = math.Max(1, math.Abs(c.p.Cost())*0.05)
	}
	c.temp = sigma / -math.Log(initAccept)
	c.best = c.p.Cost()
	c.res = Result{TotalMoves: c.cfg.MovesPerTemp, Accepted: c.cfg.MovesPerTemp}
	if c.onTemp != nil {
		c.onTemp(TempStats{Step: 0, Temp: c.temp, Moves: c.cfg.MovesPerTemp, Accepted: c.cfg.MovesPerTemp,
			Cost: c.p.Cost(), BestCost: c.best, StdCost: sigma, Elapsed: time.Since(start)})
	}
	c.started = true
}

// adopt replaces the chain's problem state (elite migration at a
// synchronization barrier): the chain keeps its own rng stream, temperature
// and step budget, resets its stagnation counter, and resumes if it had
// frozen with budget remaining.
func (c *Chain) adopt(p Problem) {
	c.p = p
	if cost := p.Cost(); cost < c.best {
		c.best = cost
	}
	c.adoptions++
	c.frozen = 0
	c.done = c.step >= c.cfg.MaxTemps
}

// stats accumulates mean/std/min online.
type stats struct {
	n          int
	mean, m2   float64
	min        float64
	haveSample bool
}

func (s *stats) add(x float64) {
	if !s.haveSample || x < s.min {
		s.min = x
		s.haveSample = true
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

func (s *stats) std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}
