package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/fabric"
	"repro/internal/layio"
	"repro/internal/metrics"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/server"
	"repro/internal/timing"
)

// simWorkload runs the simultaneous flow directly on s1-shaped designs at
// the Table-1 effort. Each run uses a fixed set of designs derived from the
// seed, so quality and counts are a pure function of the seed, and cycles
// through them again until the time budget is spent.
type simWorkload struct {
	tracks        int
	disableTiming bool
	designs       int // distinct designs per run
}

var (
	// sim-timing: 38 tracks route fully, timing on; time splits across
	// droute, timing and groute.
	simTiming = simWorkload{tracks: exper.DefaultTracks, designs: 4}
	// sim-congested: Table-2 wirability mode at 16 tracks, below the
	// design's minimum of 19; a pool of unroutable nets is retried on every
	// move and no timing work is done.
	simCongested = simWorkload{tracks: 16, disableTiming: true, designs: 14}
)

const (
	simProfile = "s1"
	// hitReps is how often each finished layout is re-delivered to time
	// hit_p50_ms.
	hitReps = 10
	// setupReps is how many extra set-ups per design feed setup_s.
	setupReps = 10
	// minAgreement is the lowest accepted ratio of the in-loop worst-case
	// delay to the independent analyzer's; the paper reports its estimates
	// within 90% of the independent evaluation.
	minAgreement = 0.85
)

// deriveSeed maps (seed, stream, index) to a non-negative sub-seed
// (SplitMix64 finalizer), so designs of different streams and indices never
// share a seed.
func deriveSeed(seed int64, stream, index int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(index) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2) // non-negative, as job seeds must be
}

// design is one generated input: a reseeded netgen profile, the channel
// capacity, and the optimizer settings it runs with.
type design struct {
	profile string
	seed    int64 // netlist and optimizer seed
	tracks  int
	timing  bool // timing term on (off = Table-2 wirability mode)
	backend droute.Backend
}

func (w simWorkload) design(seed int64, i int) design {
	return design{profile: simProfile, seed: deriveSeed(seed, 0, i), tracks: w.tracks, timing: !w.disableTiming}
}

func (d design) netlist() (*netlist.Netlist, error) {
	p, ok := netgen.Profile(d.profile)
	if !ok {
		return nil, fmt.Errorf("unknown netgen profile %q", d.profile)
	}
	p.Seed = d.seed
	return netgen.Generate(p)
}

// config is the Table-1 effort: exper.FastEffort's annealing knobs.
func (d design) config() core.Config {
	e := exper.FastEffort()
	return core.Config{Seed: d.seed, MovesPerCell: e.CoreMovesPerCell, MaxTemps: e.CoreMaxTemps,
		DisableTiming: !d.timing, RouteBackend: d.backend}
}

// job is the same run as a serving request's configuration.
func (d design) job() server.JobConfig {
	c := d.config()
	return server.JobConfig{Seed: c.Seed, MovesPerCell: c.MovesPerCell, MaxTemps: c.MaxTemps,
		DisableTiming: c.DisableTiming, RouteBackend: string(c.RouteBackend)}
}

// setUp generates the netlist, sizes its architecture and builds the
// optimizer: the set-up a user pays before annealing starts.
func (d design) setUp(mc metrics.Collector) (*netlist.Netlist, *core.Optimizer, time.Duration, error) {
	start := time.Now()
	nl, err := d.netlist()
	if err != nil {
		return nil, nil, 0, err
	}
	a, err := exper.ArchFor(nl, d.tracks)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := d.config()
	cfg.Metrics = mc
	o, err := core.New(a, nl, cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("design seed %d: %w", d.seed, err)
	}
	return nl, o, time.Since(start), nil
}

// stepTimer collects the wall time of each temperature step from the
// optimizer's own progress records.
type stepTimer struct {
	mu sync.Mutex
	ms []float64
}

func (s *stepTimer) RecordTemp(r metrics.TempRecord) {
	s.mu.Lock()
	s.ms = append(s.ms, float64(r.Elapsed)/float64(time.Millisecond))
	s.mu.Unlock()
}
func (s *stepTimer) RecordPhase(metrics.PhaseRecord) {}
func (s *stepTimer) RecordChain(metrics.ChainRecord) {}

// flow is one finished design: set-up, run, and what they produced.
type flow struct {
	d          design
	nl         *netlist.Netlist
	o          *core.Optimizer
	hot        *core.Optimizer // clone taken right after core.New, if asked for
	res        core.Result
	setup, run time.Duration
	steps      []float64         // ms per temperature step
	rt         fabric.RouteStats // counter deltas over Run
	sta        timing.Stats
}

func (d design) flow(keepHot bool) (*flow, error) {
	st := &stepTimer{}
	nl, o, setup, err := d.setUp(st)
	if err != nil {
		return nil, err
	}
	f := &flow{d: d, nl: nl, o: o, setup: setup}
	if keepHot {
		f.hot = o.Clone()
	}
	rt0, sta0 := o.F.Stats, o.An.Stats()
	start := time.Now()
	f.res = o.Run()
	f.run = time.Since(start)
	f.steps = st.ms
	f.rt, f.sta = o.F.Stats.Sub(rt0), o.An.Stats().Sub(sta0)
	return f, nil
}

// digest is the flow's exact outcome: layout hash and every count. Runs
// with the same seed must agree on it.
func (f *flow) digest() string {
	r := f.res
	return fmt.Sprintf("%s moves=%d acc=%d temps=%d repair=%d G=%d D=%d wcd=%s rt=%+v sta=%+v",
		exper.LayoutHash(f.o), r.Anneal.TotalMoves, r.Anneal.Accepted, r.Anneal.Temps,
		r.RepairMoves, r.G, r.D, strconv.FormatFloat(r.WCD, 'g', -1, 64), f.rt, f.sta)
}

// check validates the final layout. Optimizer.Check runs placement
// legality (layout.Placement.Validate), the cached net boxes
// (ValidateNetBoxes), fabric ownership against the routes
// (fabric.CheckConsistent) and the optimizer's counter and route-geometry
// invariants. The result must agree with the optimizer and, when the layout
// routes fully, its in-loop worst-case delay with the independent analyzer.
// A design run with timing on must route fully.
func (f *flow) check() error {
	o, r := f.o, f.res
	if err := o.Check(); err != nil {
		return err
	}
	if r.G != o.G() || r.D != o.D() || r.WCD != o.WCD() || r.WCD <= 0 {
		return fmt.Errorf("result G=%d D=%d WCD=%g disagrees with the optimizer (G=%d D=%d WCD=%g)",
			r.G, r.D, r.WCD, o.G(), o.D(), o.WCD())
	}
	if !r.FullyRouted {
		if f.d.timing {
			return fmt.Errorf("design seed %d: timing run left %d nets unrouted", f.d.seed, r.D)
		}
		return nil
	}
	v, err := timing.Verify(o.P, o.Rts, r.WCD)
	if err != nil {
		return err
	}
	if v.Agreement < minAgreement || v.Agreement > 1 {
		return fmt.Errorf("design seed %d: in-loop WCD %.0f ps vs independent %.0f ps: agreement %.3f outside [%g, 1]",
			f.d.seed, r.WCD, v.WCD, v.Agreement, minAgreement)
	}
	return nil
}

// redeliver serializes the finished layout and parses it back against the
// netlist, as a client fetching an already computed result does.
func (f *flow) redeliver(buf *bytes.Buffer) error {
	buf.Reset()
	if err := layio.Write(buf, f.o.P, f.o.Rts); err != nil {
		return err
	}
	_, _, err := layio.Read(bytes.NewReader(buf.Bytes()), f.o.A, f.nl)
	return err
}

// measure is the untraced run: flows over the designs until the budget is
// spent, then extra set-ups. Nothing else runs in the process.
func (w simWorkload) measure(r *run) error {
	if r.trace {
		return w.traced(r)
	}
	start := time.Now()
	runs := make([][]float64, w.designs)
	wcd := make([]float64, w.designs)
	var setups, steps, hits []float64
	var runTotal time.Duration
	var buf bytes.Buffer
	for i := 0; i < w.designs || time.Since(start) < r.seconds; i++ {
		d := i % w.designs
		f, err := w.design(r.seed, d).flow(false)
		if err != nil {
			return err
		}
		r.attempt(f.check())
		r.ledger.check(fmt.Sprintf("design%d", d), f.digest())
		setups = append(setups, f.setup.Seconds())
		runs[d] = append(runs[d], f.run.Seconds())
		wcd[d] = f.res.WCD
		steps = append(steps, f.steps...)
		runTotal += f.run
		for k := 0; k < hitReps; k++ {
			t := time.Now()
			err := f.redeliver(&buf)
			hits = append(hits, msSince(t))
			if k == 0 {
				r.attempt(err)
			}
		}
	}
	for k := 0; k < setupReps; k++ {
		for d := 0; d < w.designs; d++ {
			_, _, setup, err := w.design(r.seed, d).setUp(nil)
			if err != nil {
				return err
			}
			setups = append(setups, setup.Seconds())
		}
	}
	perDesign := make([]float64, w.designs)
	for d := range runs {
		perDesign[d] = median(runs[d])
	}
	p90, err := percentile(steps, 90)
	if err != nil {
		return fmt.Errorf("job_p90_ms: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	r.set("run_s", mean(perDesign))
	r.set("critical_path_ps", geomean(wcd))
	r.set("peak_rss_mb", rss)
	r.set("job_p50_ms", median(steps))
	r.set("job_p90_ms", p90)
	r.set("hit_p50_ms", median(hits))
	r.set("jobs_per_s", float64(len(steps))/runTotal.Seconds())
	return nil
}

// traced is the traced run: the same flows once over the designs, for the
// exact counts, then the probes on the first design and a short serving
// episode of it.
func (w simWorkload) traced(r *run) error {
	start := time.Now()
	c := &counts{}
	var first *flow
	for d := 0; d < w.designs; d++ {
		f, err := w.design(r.seed, d).flow(d == 0)
		if err != nil {
			return err
		}
		r.attempt(f.check())
		r.ledger.check(fmt.Sprintf("design%d", d), f.digest())
		c.add(f)
		if d == 0 {
			first = f
		}
	}
	untraced := time.Since(start)
	t := timings{}
	if err := probeAll(r, t, first, c); err != nil {
		return err
	}
	fresh, err := freshRequest(first.d, first.nl)
	if err != nil {
		return err
	}
	group, err := portfolioRequest(first.d, first.nl)
	if err != nil {
		return err
	}
	if err := serveEpisode(r, []request{fresh, {kind: reqHit, origin: 0}, group}); err != nil {
		return err
	}
	t.set(r)
	r.set("trace.overhead_frac", (time.Since(start)-untraced).Seconds()/untraced.Seconds())
	return nil
}

// counts sums the always-on counters of a set of flows.
type counts struct {
	designs                    int
	moves, annealMoves, accept int64
	temps, unrouted            int64
	rt                         fabric.RouteStats
	sta                        timing.Stats
	run                        time.Duration
}

func (c *counts) add(f *flow) {
	c.designs++
	c.moves += int64(f.res.Anneal.TotalMoves + f.res.RepairMoves)
	c.annealMoves += int64(f.res.Anneal.TotalMoves)
	c.accept += int64(f.res.Anneal.Accepted)
	c.temps += int64(f.res.Anneal.Temps)
	c.unrouted += int64(f.res.D)
	c.rt.RipUps += f.rt.RipUps
	c.rt.GRouteAttempts += f.rt.GRouteAttempts
	c.rt.GRouteFails += f.rt.GRouteFails
	c.rt.DRouteAttempts += f.rt.DRouteAttempts
	c.rt.DRouteFails += f.rt.DRouteFails
	c.sta.NetUpdates += f.sta.NetUpdates
	c.sta.CellsRelaxed += f.sta.CellsRelaxed
	c.run += f.run
}

func (c *counts) set(r *run) {
	n := float64(c.designs)
	r.set("droute.attempts_per_move", ratio(c.rt.DRouteAttempts, c.moves))
	r.set("droute.fail_frac", ratio(c.rt.DRouteFails, c.rt.DRouteAttempts))
	r.set("timing.net_updates_per_move", ratio(c.sta.NetUpdates, c.moves))
	r.set("timing.cells_relaxed_per_move", ratio(c.sta.CellsRelaxed, c.moves))
	r.set("groute.attempts_per_move", ratio(c.rt.GRouteAttempts, c.moves))
	r.set("groute.fail_frac", ratio(c.rt.GRouteFails, c.rt.GRouteAttempts))
	r.set("fabric.ripups_per_move", ratio(c.rt.RipUps, c.moves))
	r.set("core.moves", float64(c.moves)/n)
	r.set("core.accept_ratio", ratio(c.accept, c.annealMoves))
	r.set("core.unrouted_nets", float64(c.unrouted)/n)
	r.set("anneal.temps", float64(c.temps)/n)
	r.set("core.ns_per_move", float64(c.run.Nanoseconds())/float64(c.moves))
}
