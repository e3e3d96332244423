// Package timing implements the delay machinery of the paper (§3.5): a
// detailed Elmore RC-tree model for physically embedded nets that accounts
// for every programmed antifuse and segment the route uses, a crude
// spatial-extent estimator for nets that are not yet embedded, one-time
// levelization, full and incremental (level-ordered frontier) worst-case
// arrival propagation with journaled undo, and an independently coded
// post-layout analyzer standing in for the RICE AWE evaluator used in the
// paper's experiments.
package timing

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/layout"
)

// rcEdge is one resistive connection of the undirected RC graph.
type rcEdge struct {
	to int
	r  float64
}

// rcGraph is the per-net RC network. Topologically it is always a tree; it
// is built undirected and oriented away from the source when evaluated.
type rcGraph struct {
	cap    []float64
	adj    [][]rcEdge
	sinkAt []int // node -> sink index or -1
}

func newRCGraph() *rcGraph { return &rcGraph{} }

// reset clears the graph for reuse, keeping the allocated storage.
func (g *rcGraph) reset() {
	g.cap = g.cap[:0]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.adj = g.adj[:0]
	g.sinkAt = g.sinkAt[:0]
}

func (g *rcGraph) addNode(c float64) int {
	g.cap = append(g.cap, c)
	if len(g.adj) < cap(g.adj) {
		g.adj = g.adj[:len(g.adj)+1]
	} else {
		g.adj = append(g.adj, nil)
	}
	g.sinkAt = append(g.sinkAt, -1)
	return len(g.cap) - 1
}

func (g *rcGraph) addCap(n int, c float64) { g.cap[n] += c }

// addEdge connects a and b with resistance r and wire capacitance c split
// evenly between the endpoints.
func (g *rcGraph) addEdge(a, b int, r, c float64) {
	g.adj[a] = append(g.adj[a], rcEdge{to: b, r: r})
	g.adj[b] = append(g.adj[b], rcEdge{to: a, r: r})
	g.cap[a] += c / 2
	g.cap[b] += c / 2
}

// elmore roots the tree at node root and returns the Elmore delay to each of
// the nsinks sink nodes. Scratch storage comes from dc when non-nil.
func (g *rcGraph) elmore(root, nsinks int, dc *DelayCalc) ([]float64, error) {
	n := len(g.cap)
	var parent []int
	var parentR, down, delay []float64
	var order, stack []int
	if dc != nil {
		parent = resizeInts(&dc.parent, n)
		parentR = resizeFloats(&dc.parentR, n)
		down = resizeFloats(&dc.down, n)
		delay = resizeFloats(&dc.delay, n)
		order = dc.order[:0]
		stack = dc.stack[:0]
		defer func() { dc.order, dc.stack = order, stack }()
	} else {
		parent = make([]int, n)
		parentR = make([]float64, n)
		down = make([]float64, n)
		delay = make([]float64, n)
		order = make([]int, 0, n)
	}
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[root] = -1
	stack = append(stack, root)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for _, e := range g.adj[u] {
			if parent[e.to] == -2 {
				parent[e.to] = u
				parentR[e.to] = e.r
				stack = append(stack, e.to)
			} else if e.to != parent[u] {
				return nil, fmt.Errorf("timing: RC network is not a tree")
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("timing: RC network is disconnected (%d of %d nodes reached)", len(order), n)
	}
	// Reverse preorder gives children before parents: accumulate downstream
	// capacitance, then delays in preorder.
	copy(down, g.cap)
	for i := n - 1; i >= 1; i-- {
		u := order[i]
		down[parent[u]] += down[u]
	}
	for i := range delay {
		delay[i] = 0
	}
	for _, u := range order[1:] {
		delay[u] = delay[parent[u]] + parentR[u]*down[u]
	}
	var out []float64
	if dc != nil {
		out = resizeFloats(&dc.out, nsinks)
		for i := range out {
			out[i] = 0
		}
	} else {
		out = make([]float64, nsinks)
	}
	for u := 0; u < n; u++ {
		if s := g.sinkAt[u]; s >= 0 {
			out[s] = delay[u]
		}
	}
	return out, nil
}

type tapKind uint8

const (
	driverTap tapKind = iota
	sinkTap
	trunkTap
)

// tap is a connection point on a horizontal run.
type tap struct {
	col  int
	kind tapKind
	sink int // sink index for sinkTap, else -1
}

// sortTapsByCol orders a channel's taps by column with a stable insertion
// sort. A channel holds a handful of taps, and unlike sort.SliceStable this
// allocates nothing; stability makes it produce the identical ordering for
// equal columns.
func sortTapsByCol(ts []tap) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].col < ts[j-1].col; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// NetDelays computes the Elmore delay from the net's driver to each sink of
// a completely detail-routed net, using the exact segments and antifuses the
// route occupies. The returned slice is indexed like Nets[id].Sinks.
//
// The model: the driver resistance feeds a cross antifuse onto the horizontal
// run in the driver's channel. Each horizontal run is an RC line over the
// full allocated segment span, with a programmed antifuse (RAntifuse,
// CAntifuse) at every internal segment boundary. A multi-channel net's runs
// are joined by the vertical trunk — an RC line with antifuses at vertical
// segment boundaries — tapped into each run through an antifuse. Sinks hang
// off their run through a cross antifuse plus pin load.
//
// wireLoad scales wire capacitance; the in-loop model uses 1.0 while the
// independent verify analyzer uses a slightly higher factor to model the
// unprogrammed-antifuse site loading it resolves explicitly.
func NetDelays(p *layout.Placement, id int32, r *fabric.NetRoute, wireLoad float64) ([]float64, error) {
	return (&DelayCalc{}).NetDelays(p, id, r, wireLoad)
}

// DelayCalc computes per-net Elmore delays while reusing all intermediate
// storage across calls — the allocation-free fast path for the annealer's
// inner loop. The slice returned by NetDelays is valid until the next call.
type DelayCalc struct {
	g rcGraph

	// Dense per-channel tap scratch. tapsByCh/trunkAt are indexed by channel
	// and only the channels in touched carry state; resetting walks touched
	// instead of the whole fabric. (These were maps before, but clearing a map
	// and re-appending from nil allocates on every call — this is the
	// annealer's per-move path.)
	tapsByCh [][]tap
	trunkAt  []int
	touched  []int

	chs     []int
	vbounds []int
	bounds  []int
	chain   []int
	vnodes  []int
	out     []float64

	parent       []int
	order, stack []int
	parentR      []float64
	down, delay  []float64

	est []float64 // Delays' estimate buffer
}

// addTap records a tap in the dense per-channel scratch, tracking first
// touches so the next call can reset only what this one used.
func (dc *DelayCalc) addTap(ch int, tp tap) {
	if len(dc.tapsByCh[ch]) == 0 {
		dc.touched = append(dc.touched, ch)
	}
	dc.tapsByCh[ch] = append(dc.tapsByCh[ch], tp)
}

func resizeInts(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	*s = (*s)[:n]
	return *s
}

func resizeFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// Delays returns the in-loop delay model's per-sink delays for a net (paper
// §3.5): Elmore at wire load 1.0 once the net is completely detail-routed,
// the spatial estimate otherwise. Every timing view the annealer, the
// sequential flow and the layout facade keep is filled through it. The
// returned slice is valid until the next call.
func (dc *DelayCalc) Delays(p *layout.Placement, id int32, r *fabric.NetRoute) ([]float64, error) {
	if r.DetailDone() {
		return dc.NetDelays(p, id, r, 1.0)
	}
	dc.est = AppendEstimateDelays(dc.est[:0], p, id)
	return dc.est, nil
}

// NetDelays is the reusing variant of the package-level NetDelays.
func (dc *DelayCalc) NetDelays(p *layout.Placement, id int32, r *fabric.NetRoute, wireLoad float64) ([]float64, error) {
	if !r.DetailDone() {
		return nil, fmt.Errorf("timing: net %d is not completely routed", id)
	}
	nl := p.NL
	net := &nl.Nets[id]
	if len(net.Sinks) == 0 {
		return nil, nil
	}
	a := p.A
	rc := a.RC
	g := &dc.g
	g.reset()
	source := g.addNode(0)

	// Gather taps per channel, resetting only the channels touched last call.
	for len(dc.tapsByCh) < a.Channels() {
		dc.tapsByCh = append(dc.tapsByCh, nil)
		dc.trunkAt = append(dc.trunkAt, -1)
	}
	for _, ch := range dc.touched {
		dc.tapsByCh[ch] = dc.tapsByCh[ch][:0]
		dc.trunkAt[ch] = -1
	}
	dc.touched = dc.touched[:0]
	drvCh, drvCol := p.PinPos(net.Driver)
	dc.addTap(drvCh, tap{col: drvCol, kind: driverTap, sink: -1})
	for si, s := range net.Sinks {
		ch, col := p.PinPos(s)
		dc.addTap(ch, tap{col: col, kind: sinkTap, sink: si})
	}
	if r.HasTrunk {
		for i := range r.Chans {
			dc.addTap(r.Chans[i].Ch, tap{col: r.TrunkCol, kind: trunkTap, sink: -1})
		}
	}

	trunkNode := dc.trunkAt // channel -> run node at trunk column, -1 unset
	seenDriver := false
	for i := range r.Chans {
		ca := &r.Chans[i]
		ts := dc.tapsByCh[ca.Ch]
		if len(ts) == 0 {
			return nil, fmt.Errorf("timing: net %d routed channel %d has no taps", id, ca.Ch)
		}
		sortTapsByCol(ts)
		segs := a.Seg[ca.Track]
		runStart := segs[ca.SegLo].Start
		runEnd := segs[ca.SegHi].End // exclusive
		boundaries := dc.bounds[:0]
		for s := ca.SegLo; s < ca.SegHi; s++ {
			boundaries = append(boundaries, segs[s].End)
		}
		dc.bounds = boundaries
		span := func(x0, x1 int) (wire float64, nb int) {
			for _, b := range boundaries {
				if b > x0 && b <= x1 {
					nb++
				}
			}
			return float64(x1 - x0), nb
		}

		// Chain the tap nodes along the run.
		chain := resizeInts(&dc.chain, len(ts))
		for ti := range ts {
			chain[ti] = g.addNode(0)
			if ti > 0 {
				wire, nb := span(ts[ti-1].col, ts[ti].col)
				g.addEdge(chain[ti-1], chain[ti],
					rc.RUnit*wire+rc.RAntifuse*float64(nb),
					wireLoad*rc.CUnit*wire+rc.CAntifuse*float64(nb))
			}
		}
		// Overhang: allocated-but-unused segment length still loads the net.
		lw, lnb := span(runStart, ts[0].col)
		g.addCap(chain[0], wireLoad*rc.CUnit*lw+rc.CAntifuse*float64(lnb))
		rw, rnb := span(ts[len(ts)-1].col, runEnd)
		g.addCap(chain[len(ts)-1], wireLoad*rc.CUnit*rw+rc.CAntifuse*float64(rnb))

		for ti, tp := range ts {
			node := chain[ti]
			switch tp.kind {
			case driverTap:
				g.addEdge(source, node, rc.RDriver+rc.RCross, 0)
				g.addCap(node, rc.CCross)
				seenDriver = true
			case sinkTap:
				pin := g.addNode(rc.CCross + rc.CPin)
				g.addEdge(node, pin, rc.RCross, 0)
				g.sinkAt[pin] = tp.sink
			case trunkTap:
				trunkNode[ca.Ch] = node
			}
		}
	}
	if !seenDriver {
		return nil, fmt.Errorf("timing: net %d driver channel %d not covered by route", id, drvCh)
	}

	if r.HasTrunk {
		// Channels carrying a trunk tap, ascending. r.Chans holds one entry
		// per channel, so insertion-sorting its (unique) channel ids yields
		// exactly what sorting the old map's keys did.
		chs := dc.chs[:0]
		for i := range r.Chans {
			chs = append(chs, r.Chans[i].Ch)
		}
		for i := 1; i < len(chs); i++ {
			for j := i; j > 0 && chs[j] < chs[j-1]; j-- {
				chs[j], chs[j-1] = chs[j-1], chs[j]
			}
		}
		dc.chs = chs
		vBoundaries := dc.vbounds[:0]
		for s := r.VLo; s < r.VHi; s++ {
			vBoundaries = append(vBoundaries, (s+1)*a.VSpan)
		}
		dc.vbounds = vBoundaries
		vspan := func(c0, c1 int) (wire float64, nb int) {
			for _, b := range vBoundaries {
				if b > c0 && b <= c1 {
					nb++
				}
			}
			return float64(c1 - c0), nb
		}
		// One vertical node per tapped channel, chained in channel order,
		// each joined to its run through a programmed antifuse.
		vnodes := resizeInts(&dc.vnodes, len(chs))
		for i, ch := range chs {
			vnodes[i] = g.addNode(0)
			g.addEdge(vnodes[i], trunkNode[ch], rc.RAntifuse, rc.CAntifuse)
			if i > 0 {
				wire, nb := vspan(chs[i-1], chs[i])
				g.addEdge(vnodes[i-1], vnodes[i],
					rc.RVUnit*wire+rc.RAntifuse*float64(nb),
					wireLoad*rc.CVUnit*wire+rc.CAntifuse*float64(nb))
			}
		}
		// Vertical overhang beyond the extreme tapped channels.
		vLoCh := r.VLo * a.VSpan
		vHiCh := (r.VHi+1)*a.VSpan - 1
		if vHiCh > a.Channels()-1 {
			vHiCh = a.Channels() - 1
		}
		lw, lnb := vspan(vLoCh, chs[0])
		g.addCap(vnodes[0], wireLoad*rc.CVUnit*lw+rc.CAntifuse*float64(lnb))
		hw, hnb := vspan(chs[len(chs)-1], vHiCh)
		g.addCap(vnodes[len(chs)-1], wireLoad*rc.CVUnit*hw+rc.CAntifuse*float64(hnb))
	}

	return g.elmore(source, len(net.Sinks), dc)
}
