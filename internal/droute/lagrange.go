package droute

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fabric"
)

// Backend names a full detailed-routing algorithm. The zero value selects the
// paper-era ordered router.
type Backend string

const (
	// BackendOrdered is the paper's sequential router: longest-first single
	// pass per channel with randomized-ordering retries ([8][11]).
	BackendOrdered Backend = "ordered"
	// BackendNegotiated is the PathFinder-style negotiated-congestion router
	// (RouteAllNegotiated): each channel negotiates independently.
	BackendNegotiated Backend = "negotiated"
	// BackendLagrange is the Lagrangian-relaxation router (RouteAllLagrange):
	// nets choose tracks independently against shared congestion prices.
	BackendLagrange Backend = "lagrange"
)

// ParseBackend validates a backend name from a flag or API field. The empty
// string selects BackendOrdered, keeping every pre-existing configuration
// bit-identical.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendOrdered:
		return BackendOrdered, nil
	case BackendNegotiated:
		return BackendNegotiated, nil
	case BackendLagrange:
		return BackendLagrange, nil
	}
	return "", fmt.Errorf("droute: unknown router backend %q (want %q, %q or %q)",
		s, BackendOrdered, BackendNegotiated, BackendLagrange)
}

// LagrangeConfig tunes the Lagrangian-relaxation full detailed router. The
// scheme follows the parallel FPGA routers built on Lagrangian relaxation
// (ParaLarH and the sub-gradient Steiner router): capacity constraints are
// priced rather than enforced, every net independently picks its cheapest
// track under the current prices, and a projected sub-gradient step raises
// the price of over-subscribed segments between iterations.
type LagrangeConfig struct {
	// MaxIters caps the price-update iterations (default 24). The loop exits
	// early as soon as an iteration produces no over-subscribed segment.
	MaxIters int
	// Seed feeds the per-net tie-break RNGs and the ordered-router fallback.
	Seed int64
	// FallbackAttempts is the ordering-retry budget of the ordered-router
	// fallback on instances the relaxation cannot fully embed (default 8).
	FallbackAttempts int
}

func (c *LagrangeConfig) setDefaults() {
	if c.MaxIters <= 0 {
		c.MaxIters = 24
	}
	if c.FallbackAttempts <= 0 {
		c.FallbackAttempts = 8
	}
}

// lagrangeStep is the initial sub-gradient step size: iteration t uses
// lagrangeStep/√(t+1), the classic diminishing schedule that guarantees
// sub-gradient convergence.
const lagrangeStep = 1.0

// lagItem is one unrouted channel need plus its dedicated tie-break RNG.
type lagItem struct {
	net int32
	ci  int
	ch  int
	rng *rand.Rand
}

// lagChannel is the priced view of one channel: λ ≥ 0 per (track, segment),
// the occupancy of the current iteration's choices, and the segments already
// owned in the fabric (blocked at any price).
type lagChannel struct {
	price   [][]float64
	occ     [][]int16
	blocked [][]bool
}

// RouteAllLagrange detail-routes every unrouted channel need of the globally
// routed nets by Lagrangian relaxation, then commits the final assignment
// into f. Returns the number of channel needs left unrouted.
//
// Each iteration proceeds in three strictly separated steps. First, every
// net independently picks the track minimizing base cost plus the summed
// congestion prices λ of the segments it would occupy, against prices frozen
// for the whole pass. Second, occupancy is accumulated and the iteration
// terminates the loop if no segment is over-subscribed. Third, a projected
// sub-gradient step updates the prices: λ ← max(0, λ + αt·(occ−1)) with
// αt = lagrangeStep/√(t+1), raising prices on contended segments and decaying
// them on idle ones. Equal-cost track ties are broken by a per-net RNG split
// deterministically from (Seed, net, channel index), which decorrelates
// symmetric nets (otherwise they would all migrate to the same alternative
// track each iteration and oscillate). Commitment is in ascending
// (net, channel-index) order with first-come-wins on residual conflicts and
// a salvage RouteChan for the losers; if needs remain unrouted, the ordered router with retry orderings
// runs as a fallback and the better result is kept, so the relaxation is
// never a downgrade. Results are bit-identical for fixed (Seed, MaxIters).
func RouteAllLagrange(f *fabric.Fabric, routes []fabric.NetRoute, base Cost, cfg LagrangeConfig) int {
	cfg.setDefaults()

	var items []lagItem
	for id := range routes {
		if !routes[id].Global {
			continue
		}
		for ci := range routes[id].Chans {
			ca := &routes[id].Chans[ci]
			if !ca.Routed() {
				items = append(items, lagItem{
					net: int32(id),
					ci:  ci,
					ch:  ca.Ch,
					rng: rand.New(rand.NewSource(splitSeed(cfg.Seed, int32(id), ci))),
				})
			}
		}
	}
	if len(items) == 0 {
		return 0
	}
	// One attempt per channel need; salvage and fallback RouteChan calls
	// count their own attempts on top, as genuinely separate tries.
	f.Stats.DRouteAttempts += int64(len(items))

	a := f.A
	chans := make([]*lagChannel, a.Channels())
	for _, it := range items {
		if chans[it.ch] != nil {
			continue
		}
		lc := &lagChannel{
			price:   make([][]float64, a.Tracks),
			occ:     make([][]int16, a.Tracks),
			blocked: channelBlocked(f, it.ch),
		}
		for t := 0; t < a.Tracks; t++ {
			n := len(a.Seg[t])
			lc.price[t] = make([]float64, n)
			lc.occ[t] = make([]int16, n)
		}
		chans[it.ch] = lc
	}

	choices := make([]negChoice, len(items))
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Step 1: per-net track choice against frozen prices.
		for i, it := range items {
			choices[i] = lagrangeChoose(f, routes, chans[it.ch], it, base)
		}
		// Step 2: occupancy accumulation.
		for _, lc := range chans {
			if lc == nil {
				continue
			}
			for t := range lc.occ {
				clear(lc.occ[t])
			}
		}
		for i, it := range items {
			c := choices[i]
			if c.track < 0 {
				continue
			}
			occ := chans[it.ch].occ[c.track]
			for s := c.segLo; s <= c.segHi; s++ {
				occ[s]++
			}
		}
		// Step 3: projected sub-gradient price update; exit when feasible.
		step := lagrangeStep / math.Sqrt(float64(iter+1))
		over := 0
		for _, lc := range chans {
			if lc == nil {
				continue
			}
			for t := range lc.occ {
				price := lc.price[t]
				for s, o := range lc.occ[t] {
					switch g := int(o) - 1; {
					case g > 0:
						price[s] += step * float64(g)
						over++
					case g < 0 && price[s] > 0:
						price[s] = math.Max(0, price[s]-step)
					}
				}
			}
		}
		if over == 0 {
			break
		}
	}

	// Commit in ascending (net, ci) order: first-come wins on residual
	// conflicts, and conflict losers get a salvage attempt on whatever
	// capacity remains.
	commit := func() int {
		failed := 0
		for i, it := range items {
			c := choices[i]
			ca := &routes[it.net].Chans[it.ci]
			if c.track >= 0 && f.HRangeFree(ca.Ch, c.track, c.segLo, c.segHi) {
				f.AllocH(ca.Ch, c.track, c.segLo, c.segHi, it.net)
				ca.Track, ca.SegLo, ca.SegHi = c.track, c.segLo, c.segHi
				continue
			}
			if RouteChan(f, it.net, &routes[it.net], it.ci, base) {
				continue
			}
			failed++ // the salvage RouteChan already counted the failure
		}
		return failed
	}
	ripItems := func() {
		for _, it := range items {
			if routes[it.net].Chans[it.ci].Routed() {
				UnrouteChan(f, it.net, &routes[it.net], it.ci)
			}
		}
	}
	failed := commit()
	if failed == 0 {
		return 0
	}
	// Non-convergent (infeasible or pathological) instance: the classic
	// ordered router with retry orderings may salvage more. Keep whichever
	// result loses fewer channel needs, so the relaxation is never a
	// downgrade relative to the baseline.
	ripItems()
	orderedFailed := RouteAllDetailed(f, routes, base, cfg.FallbackAttempts,
		rand.New(rand.NewSource(cfg.Seed+43)))
	if orderedFailed <= failed {
		return orderedFailed
	}
	ripItems()
	return commit()
}

// lagrangeChoose picks the track minimizing base cost plus summed congestion
// prices for one channel need. It reads only the frozen per-channel prices
// and blocked matrix, never other items' choices. Exact cost ties are broken
// by reservoir sampling on the item's own RNG, whose stream advances only
// with this item's tie count.
func lagrangeChoose(f *fabric.Fabric, routes []fabric.NetRoute, lc *lagChannel, it lagItem, base Cost) negChoice {
	a := f.A
	ca := &routes[it.net].Chans[it.ci]
	best := math.Inf(1)
	bt := -1
	var bl, bh int
	ties := 0
	for t := 0; t < a.Tracks; t++ {
		sl, sh := a.SegRange(t, ca.Lo, ca.Hi)
		price := 0.0
		feasible := true
		for s := sl; s <= sh; s++ {
			if lc.blocked[t][s] {
				feasible = false
				break
			}
			price += lc.price[t][s]
		}
		if !feasible {
			continue
		}
		segs := a.Seg[t]
		waste := float64((segs[sh].End - segs[sl].Start) - (ca.Hi - ca.Lo + 1))
		cost := base.WWaste*waste + base.WSegs*float64(sh-sl+1) + price
		switch {
		case cost < best:
			best, bt, bl, bh = cost, t, sl, sh
			ties = 1
		case cost == best:
			ties++
			if it.rng.Intn(ties) == 0 {
				bt, bl, bh = t, sl, sh
			}
		}
	}
	return negChoice{bt, bl, bh}
}

// channelBlocked snapshots which (track, segment) slots of channel ch are
// already owned in the fabric.
func channelBlocked(f *fabric.Fabric, ch int) [][]bool {
	a := f.A
	blocked := make([][]bool, a.Tracks)
	for t := 0; t < a.Tracks; t++ {
		n := len(a.Seg[t])
		blocked[t] = make([]bool, n)
		for s := 0; s < n; s++ {
			blocked[t][s] = f.HOwner(ch, t, s) != fabric.Free
		}
	}
	return blocked
}

// splitSeed derives the per-item RNG seed from the backend seed and the
// item's (net, channel-index) identity via SplitMix64 — statistically
// independent streams from sequential identifiers, and stable no matter how
// many other items exist or in what order they are built.
func splitSeed(seed int64, net int32, ci int) int64 {
	z := splitmix64(uint64(seed))
	z = splitmix64(z ^ uint64(uint32(net))<<20 ^ uint64(uint32(ci)))
	return int64(z)
}

func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
