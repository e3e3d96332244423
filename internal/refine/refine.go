// Package refine implements the slack-driven rerouting post-pass (after
// Frankle's iterative slack allocation, the paper's reference [13]).
package refine

import (
	"sort"

	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/timing"
)

// TimingRefine is a slack-driven rerouting post-pass in the spirit of
// Frankle's iterative slack allocation (the paper's reference [13]): nets are
// visited in decreasing timing criticality, and each critical net's channels
// are rerouted with the segment-count term of the track-selection cost
// amplified — trading wastage (capacity) for fewer antifuses (delay) exactly
// where the slack budget says it pays. Non-critical nets keep their
// capacity-friendly embeddings.
//
// The pass never leaves a net worse off: if rerouting a channel fails or the
// net's worst sink delay does not improve, the original embedding is
// restored. Returns the number of nets whose embedding improved.
func TimingRefine(f *fabric.Fabric, p *layout.Placement, routes []fabric.NetRoute,
	an *timing.Analyzer, base droute.Cost, critThreshold float64) (improved int, err error) {
	crit := an.NetCriticality(an.WCD())
	order := make([]int32, 0, len(routes))
	for id := range routes {
		if routes[id].DetailDone() && len(p.NL.Nets[id].Sinks) > 0 && crit[id] >= critThreshold {
			order = append(order, int32(id))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if crit[order[i]] != crit[order[j]] {
			return crit[order[i]] > crit[order[j]]
		}
		return order[i] < order[j]
	})

	var dc timing.DelayCalc
	for _, id := range order {
		r := &routes[id]
		before, derr := dc.Delays(p, id, r)
		if derr != nil {
			return improved, derr
		}
		worstBefore := maxOf(before)

		// Remember and release the current embedding, then reroute with the
		// antifuse-count term amplified by the net's criticality.
		old := r.Clone()
		for ci := range r.Chans {
			droute.UnrouteChan(f, id, r, ci)
		}
		aggressive := droute.Cost{
			WWaste: base.WWaste / (1 + 3*crit[id]),
			WSegs:  base.WSegs * (1 + 8*crit[id]),
		}
		ok := true
		for ci := range r.Chans {
			if !droute.RouteChan(f, id, r, ci, aggressive) {
				ok = false
				break
			}
		}
		better := false
		if ok {
			after, derr := dc.Delays(p, id, r)
			if derr != nil {
				return improved, derr
			}
			better = maxOf(after) < worstBefore-1e-9
		}
		if !better {
			// Roll back to the original embedding.
			for ci := range r.Chans {
				if r.Chans[ci].Routed() {
					droute.UnrouteChan(f, id, r, ci)
				}
			}
			r.CopyFrom(&old)
			for ci := range r.Chans {
				ca := &r.Chans[ci]
				f.AllocH(ca.Ch, ca.Track, ca.SegLo, ca.SegHi, id)
			}
			continue
		}
		improved++
		// Feed the better delays into the analyzer so later nets see the
		// updated criticalities' arrival context.
		after, derr := dc.Delays(p, id, r)
		if derr != nil {
			return improved, derr
		}
		an.Begin()
		an.SetNetDelays(id, after)
		an.Propagate()
		an.Commit()
	}
	return improved, nil
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
