// Package droute implements detailed routing for segmented channels: picking,
// for each net in each channel, a track whose free consecutive segments cover
// the net's column interval. Track choice minimizes a weighted sum of segment
// wastage and segment count (after Greene et al. [8] and Roy [11]), which
// constructively prefers short, low-antifuse-count embeddings — the paper's
// substitute for an explicit wirelength cost term. The same primitive serves
// the incremental in-the-loop router and the sequential baseline's full
// channel router.
package droute

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/fabric"
)

// Cost weights the two terms of the track-selection objective.
type Cost struct {
	WWaste float64 // per column of allocated-but-unneeded segment length
	WSegs  float64 // per segment used (each extra segment implies an antifuse)
}

// DefaultCost returns the weights used throughout the reproduction.
func DefaultCost() Cost { return Cost{WWaste: 1, WSegs: 4} }

// PickTrack returns the cheapest feasible track for covering columns
// [lo, hi] in channel ch, or ok=false when no track has the needed free run.
// It visits only the tracks of the fabric's free-track mask, in ascending
// order, and keeps the first of equally cheap tracks.
func PickTrack(f *fabric.Fabric, ch, lo, hi int, cost Cost) (track, segLo, segHi int, ok bool) {
	a := f.A
	best := math.Inf(1)
	track = -1
	for w, free := range f.FreeTracks(ch, lo, hi) {
		for ; free != 0; free &= free - 1 {
			t := w<<6 | bits.TrailingZeros64(free)
			sl, sh := a.SegRange(t, lo, hi)
			segs := a.Seg[t]
			waste := float64((segs[sh].End - segs[sl].Start) - (hi - lo + 1))
			c := cost.WWaste*waste + cost.WSegs*float64(sh-sl+1)
			if c < best {
				best, track, segLo, segHi = c, t, sl, sh
			}
		}
	}
	return track, segLo, segHi, track >= 0
}

// RouteChan detail-routes channel entry ci of net id's route, allocating the
// chosen segments. The entry must currently be unrouted. Returns false when
// no track can host the interval.
func RouteChan(f *fabric.Fabric, id int32, r *fabric.NetRoute, ci int, cost Cost) bool {
	f.Stats.DRouteAttempts++
	ca := &r.Chans[ci]
	t, sl, sh, ok := PickTrack(f, ca.Ch, ca.Lo, ca.Hi, cost)
	if !ok {
		f.Stats.DRouteFails++
		return false
	}
	f.AllocH(ca.Ch, t, sl, sh, id)
	ca.Track, ca.SegLo, ca.SegHi = t, sl, sh
	return true
}

// UnrouteChan releases channel entry ci of net id's route and marks it
// unrouted.
func UnrouteChan(f *fabric.Fabric, id int32, r *fabric.NetRoute, ci int) {
	ca := &r.Chans[ci]
	f.FreeH(ca.Ch, ca.Track, ca.SegLo, ca.SegHi, id)
	ca.Track = -1
}

// RouteNet attempts to detail-route every unrouted channel of a globally
// routed net. It returns the number of channels that remain unrouted.
func RouteNet(f *fabric.Fabric, id int32, r *fabric.NetRoute, cost Cost) int {
	missing := 0
	for ci := range r.Chans {
		if r.Chans[ci].Routed() {
			continue
		}
		if !RouteChan(f, id, r, ci, cost) {
			missing++
		}
	}
	return missing
}

// chanItem identifies one channel need of one net during full routing.
type chanItem struct {
	net int32
	ci  int
	len int
}

// RouteAllDetailed is the sequential baseline's full detailed router: each
// channel is routed independently. Nets are first ordered longest-interval
// first (the classic segmented-channel heuristic); if any fail, attempts-1
// randomized orderings are tried and the best assignment (fewest failures,
// earliest attempt on ties) kept. Each retry ordering is shuffled by its own
// RNG seeded from rng, so a channel that enters the retry loop consumes
// exactly attempts-1 draws. Trial orderings are scored in the fabric and
// ripped up again; only the replayed winner counts in f.Stats. Returns the
// total number of channel needs left unrouted.
func RouteAllDetailed(f *fabric.Fabric, routes []fabric.NetRoute, cost Cost, attempts int, rng *rand.Rand) int {
	if attempts < 1 {
		attempts = 1
	}
	totalFailed := 0
	for ch := 0; ch < f.A.Channels(); ch++ {
		var items []chanItem
		for id := range routes {
			if !routes[id].Global {
				continue
			}
			for ci := range routes[id].Chans {
				ca := &routes[id].Chans[ci]
				if ca.Ch == ch && !ca.Routed() {
					items = append(items, chanItem{net: int32(id), ci: ci, len: ca.Hi - ca.Lo})
				}
			}
		}
		if len(items) == 0 {
			continue
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].len != items[j].len {
				return items[i].len > items[j].len
			}
			if items[i].net != items[j].net {
				return items[i].net < items[j].net
			}
			return items[i].ci < items[j].ci
		})
		bestFailed := routeChannelOrder(f, routes, items, cost)
		if bestFailed > 0 && attempts > 1 {
			// Trials leave no trace: the stats and the unrouted descriptors
			// (whose stale segment ranges a trial overwrites) are restored
			// before the winner is replayed.
			unrouteChannel(f, routes, items)
			stats := f.Stats
			saved := make([]fabric.ChanAssign, len(items))
			for i, it := range items {
				saved[i] = routes[it.net].Chans[it.ci]
			}
			best := items
			for k := 1; k < attempts; k++ {
				order := append([]chanItem(nil), items...)
				r := rand.New(rand.NewSource(rng.Int63()))
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				if failed := routeChannelOrder(f, routes, order, cost); failed < bestFailed {
					best, bestFailed = order, failed
				}
				unrouteChannel(f, routes, order)
			}
			f.Stats = stats
			for i, it := range items {
				routes[it.net].Chans[it.ci] = saved[i]
			}
			bestFailed = routeChannelOrder(f, routes, best, cost)
		}
		totalFailed += bestFailed
	}
	return totalFailed
}

func routeChannelOrder(f *fabric.Fabric, routes []fabric.NetRoute, items []chanItem, cost Cost) int {
	failed := 0
	for _, it := range items {
		if !RouteChan(f, it.net, &routes[it.net], it.ci, cost) {
			failed++
		}
	}
	return failed
}

func unrouteChannel(f *fabric.Fabric, routes []fabric.NetRoute, items []chanItem) {
	for _, it := range items {
		if routes[it.net].Chans[it.ci].Routed() {
			UnrouteChan(f, it.net, &routes[it.net], it.ci)
		}
	}
}
