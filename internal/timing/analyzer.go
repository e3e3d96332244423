package timing

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/layout"
	"repro/internal/netlist"
)

// Analyzer maintains worst-case arrival times over an evolving layout. Cells
// are levelized once (levels depend only on connectivity); after that, net
// delay changes are propagated incrementally through a level-bucket frontier
// (paper §3.5) with journaled undo so the annealer can reject moves cheaply.
//
// Usage per move: Begin, then SetNetDelays for every affected net, then
// Propagate to get the new worst-case delay; finally Commit or Revert.
type Analyzer struct {
	nl *netlist.Netlist
	// qlevel is each cell's level, or -1 for a timing source (whose arrival
	// never depends on inputs, so the frontier never queues it).
	qlevel []int32
	order  []int32 // cell ids sorted by level, for full recomputation
	// levelStart[L] is the index in order (and in slab) of the first
	// level-L cell; levelStart[maxLevel+1] is the cell count.
	levelStart []int32

	arr      []float64   // per cell: output arrival time
	netDelay [][]float64 // per net: per-sink interconnect delay
	sinkIdx  [][]int32   // per cell, per input pin: index into net.Sinks
	sinkPins []netlist.PinRef
	wcd      float64
	stats    Stats

	// Move journal.
	inMove     bool
	jCells     []int32
	jOldArr    []float64
	jNets      []int32
	jOldDelay  [][]float64
	jOldWCD    float64
	stamp      []uint32 // per cell: epoch when journaled
	netStamp   []uint32 // per net: epoch when journaled
	epoch      uint32
	inFrontier []uint32 // per cell: epoch when enqueued

	// Level-bucket frontier. The cells of level L queued in this Propagate
	// are slab[levelStart[L] : levelStart[L]+bucketLen[L]]. A cell is queued
	// at most once per Propagate, so a bucket never outgrows its level's
	// cell count. loLevel..hiLevel brackets the non-empty buckets.
	slab             []int32
	bucketLen        []int32
	loLevel, hiLevel int32
}

// Stats counts incremental-analysis activity: how many net-delay updates were
// pushed in, how many propagation passes ran, and how many cell arrivals were
// actually recomputed by the frontier. The counters are always on (plain
// integer adds); the observability layer snapshots them at temperature
// boundaries.
type Stats struct {
	NetUpdates   int64 // SetNetDelays calls
	Propagates   int64 // Propagate calls
	CellsRelaxed int64 // cell arrivals changed by frontier propagation
}

// Sub returns the delta s - prev, for per-interval reporting.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		NetUpdates:   s.NetUpdates - prev.NetUpdates,
		Propagates:   s.Propagates - prev.Propagates,
		CellsRelaxed: s.CellsRelaxed - prev.CellsRelaxed,
	}
}

// Stats returns the analyzer's cumulative activity counters.
func (t *Analyzer) Stats() Stats { return t.stats }

// NewAnalyzer levelizes the netlist and initializes all net delays to zero
// (arrivals then reflect pure logic depth until delays are supplied).
func NewAnalyzer(nl *netlist.Netlist) (*Analyzer, error) {
	level, err := nl.Levels()
	if err != nil {
		return nil, err
	}
	t := &Analyzer{nl: nl, qlevel: level}
	n := nl.NumCells()
	// Counting-sort cells by level.
	maxL := int32(0)
	for _, l := range level {
		if l > maxL {
			maxL = l
		}
	}
	t.levelStart = make([]int32, maxL+2)
	for _, l := range level {
		t.levelStart[l+1]++
	}
	for l := 1; l < len(t.levelStart); l++ {
		t.levelStart[l] += t.levelStart[l-1]
	}
	next := append([]int32(nil), t.levelStart[:maxL+1]...)
	t.order = make([]int32, n)
	for i, l := range level {
		t.order[next[l]] = int32(i)
		next[l]++
	}
	for i := range level { // level is t.qlevel: mark the sources
		if nl.IsSource(int32(i)) {
			level[i] = -1
		}
	}

	t.arr = make([]float64, n)
	t.netDelay = make([][]float64, nl.NumNets())
	for i := range t.netDelay {
		t.netDelay[i] = make([]float64, len(nl.Nets[i].Sinks))
	}
	t.sinkIdx = make([][]int32, n)
	for i := range nl.Cells {
		t.sinkIdx[i] = make([]int32, len(nl.Cells[i].In))
		for pi := range t.sinkIdx[i] {
			t.sinkIdx[i][pi] = -1
		}
	}
	for ni := range nl.Nets {
		for si, s := range nl.Nets[ni].Sinks {
			t.sinkIdx[s.Cell][s.Pin-1] = int32(si)
		}
	}
	for i := range nl.Cells {
		c := &nl.Cells[i]
		if c.Type == netlist.Output || c.Type == netlist.Seq {
			for pi := range c.In {
				if c.In[pi] >= 0 {
					t.sinkPins = append(t.sinkPins, netlist.PinRef{Cell: int32(i), Pin: int32(pi + 1)})
				}
			}
		}
	}
	t.stamp = make([]uint32, n)
	t.netStamp = make([]uint32, nl.NumNets())
	t.inFrontier = make([]uint32, n)
	t.slab = make([]int32, n)
	t.bucketLen = make([]int32, maxL+1)
	t.Full()
	return t, nil
}

// Clone returns a deep copy of the analyzer's committed state, sharing only
// the immutable netlist and levelization tables. The clone starts with fresh
// journal scratch; cloning inside an open move is a programming error.
func (t *Analyzer) Clone() *Analyzer {
	if t.inMove {
		panic("timing: Clone inside an open move")
	}
	c := &Analyzer{
		nl:         t.nl,
		qlevel:     t.qlevel,
		order:      t.order,
		levelStart: t.levelStart,
		arr:        append([]float64(nil), t.arr...),
		netDelay:   make([][]float64, len(t.netDelay)),
		sinkIdx:    t.sinkIdx,
		sinkPins:   t.sinkPins,
		wcd:        t.wcd,
		stats:      t.stats,

		stamp:      make([]uint32, len(t.stamp)),
		netStamp:   make([]uint32, len(t.netStamp)),
		inFrontier: make([]uint32, len(t.inFrontier)),
		slab:       make([]int32, len(t.slab)),
		bucketLen:  make([]int32, len(t.bucketLen)),
	}
	for i := range t.netDelay {
		c.netDelay[i] = append([]float64(nil), t.netDelay[i]...)
	}
	return c
}

// computeArr evaluates a cell's output arrival from current state.
func (t *Analyzer) computeArr(cell int32) float64 {
	c := &t.nl.Cells[cell]
	switch c.Type {
	case netlist.Input, netlist.Seq:
		return c.Delay
	}
	m := 0.0
	for pi, nid := range c.In {
		if nid < 0 {
			continue
		}
		v := t.arr[t.nl.Nets[nid].Driver.Cell] + t.netDelay[nid][t.sinkIdx[cell][pi]]
		if v > m {
			m = v
		}
	}
	return m + c.Delay
}

// pinArrival returns the arrival time at a sink pin.
func (t *Analyzer) pinArrival(p netlist.PinRef) float64 {
	nid := t.nl.Cells[p.Cell].In[p.Pin-1]
	return t.arr[t.nl.Nets[nid].Driver.Cell] + t.netDelay[nid][t.sinkIdx[p.Cell][p.Pin-1]]
}

// scanWCD computes the worst arrival over all timing sink pins.
func (t *Analyzer) scanWCD() float64 {
	w := 0.0
	for _, p := range t.sinkPins {
		if v := t.pinArrival(p); v > w {
			w = v
		}
	}
	return w
}

// Full recomputes every arrival from scratch in level order and refreshes the
// worst-case delay. Used at initialization and as the reference in tests.
func (t *Analyzer) Full() {
	for _, id := range t.order {
		t.arr[id] = t.computeArr(id)
	}
	t.wcd = t.scanWCD()
}

// WCD returns the current worst-case (critical path) delay.
func (t *Analyzer) WCD() float64 { return t.wcd }

// Arrival returns the cell's current output arrival time.
func (t *Analyzer) Arrival(cell int32) float64 { return t.arr[cell] }

// NetDelay returns the current per-sink delay cache for a net. The slice is
// owned by the analyzer; callers must not mutate it.
func (t *Analyzer) NetDelay(id int32) []float64 { return t.netDelay[id] }

// Begin opens a move journal. Nested moves are a programming error.
func (t *Analyzer) Begin() {
	if t.inMove {
		panic("timing: Begin inside an open move")
	}
	t.inMove = true
	t.epoch++
	t.jCells = t.jCells[:0]
	t.jOldArr = t.jOldArr[:0]
	t.jNets = t.jNets[:0]
	t.jOldDelay = t.jOldDelay[:0]
	t.jOldWCD = t.wcd
}

// SetNetDelays replaces a net's per-sink delays inside an open move,
// journaling the old values. d must have one entry per sink; it is copied.
func (t *Analyzer) SetNetDelays(id int32, d []float64) {
	if !t.inMove {
		panic("timing: SetNetDelays outside a move")
	}
	if len(d) != len(t.netDelay[id]) {
		panic(fmt.Sprintf("timing: net %d delay arity %d, want %d", id, len(d), len(t.netDelay[id])))
	}
	t.stats.NetUpdates++
	if t.netStamp[id] != t.epoch {
		t.netStamp[id] = t.epoch
		t.jNets = append(t.jNets, id)
		// Reuse the journal slot's backing storage across moves.
		if len(t.jOldDelay) < cap(t.jOldDelay) {
			t.jOldDelay = t.jOldDelay[:len(t.jOldDelay)+1]
		} else {
			t.jOldDelay = append(t.jOldDelay, nil)
		}
		last := len(t.jOldDelay) - 1
		t.jOldDelay[last] = append(t.jOldDelay[last][:0], t.netDelay[id]...)
	}
	copy(t.netDelay[id], d)
}

// Fill loads every net's in-loop delays (dc.Delays) as one move, propagates
// and commits. On an error it reverts, leaving the committed state as it was.
func (t *Analyzer) Fill(p *layout.Placement, routes []fabric.NetRoute, dc *DelayCalc) error {
	t.Begin()
	for id := range routes {
		if len(t.nl.Nets[id].Sinks) == 0 {
			continue
		}
		d, err := dc.Delays(p, int32(id), &routes[id])
		if err != nil {
			t.Revert()
			return err
		}
		t.SetNetDelays(int32(id), d)
	}
	t.Propagate()
	t.Commit()
	return nil
}

// Propagate pushes the consequences of all SetNetDelays calls in this move
// through the levelized frontier and returns the new worst-case delay. It may
// be called once per move, after all delay updates.
//
// The frontier drains its level buckets from the lowest queued level up. A
// relaxed cell only queues cells of strictly higher levels, and every input
// of a level-L cell is final once the buckets below L are drained, so the
// order within a bucket changes no arrival.
func (t *Analyzer) Propagate() float64 {
	if !t.inMove {
		panic("timing: Propagate outside a move")
	}
	t.stats.Propagates++
	t.loLevel, t.hiLevel = int32(len(t.bucketLen)), -1
	for _, nid := range t.jNets {
		for _, s := range t.nl.Nets[nid].Sinks {
			t.push(s.Cell)
		}
	}
	for l := t.loLevel; l <= t.hiLevel; l++ {
		bucket := t.slab[t.levelStart[l]:]
		for i := int32(0); i < t.bucketLen[l]; i++ {
			cell := bucket[i]
			t.inFrontier[cell] = 0
			nv := t.computeArr(cell)
			if nv == t.arr[cell] {
				continue
			}
			if t.stamp[cell] != t.epoch {
				t.stamp[cell] = t.epoch
				t.jCells = append(t.jCells, cell)
				t.jOldArr = append(t.jOldArr, t.arr[cell])
			}
			t.arr[cell] = nv
			t.stats.CellsRelaxed++
			if out := t.nl.Cells[cell].Out; out >= 0 {
				for _, s := range t.nl.Nets[out].Sinks {
					t.push(s.Cell)
				}
			}
		}
		t.bucketLen[l] = 0
	}
	t.wcd = t.scanWCD()
	return t.wcd
}

// push enqueues a cell unless it is a timing source (whose arrival never
// depends on inputs) or already queued this move.
func (t *Analyzer) push(cell int32) {
	l := t.qlevel[cell]
	if l < 0 || t.inFrontier[cell] == t.epoch {
		return
	}
	t.inFrontier[cell] = t.epoch
	t.slab[t.levelStart[l]+t.bucketLen[l]] = cell
	t.bucketLen[l]++
	t.loLevel = min(t.loLevel, l)
	t.hiLevel = max(t.hiLevel, l)
}

// Commit closes the move keeping the new state.
func (t *Analyzer) Commit() {
	if !t.inMove {
		panic("timing: Commit outside a move")
	}
	t.inMove = false
}

// Revert closes the move restoring every journaled arrival and net delay.
func (t *Analyzer) Revert() {
	if !t.inMove {
		panic("timing: Revert outside a move")
	}
	for i, id := range t.jNets {
		copy(t.netDelay[id], t.jOldDelay[i])
	}
	for i, c := range t.jCells {
		t.arr[c] = t.jOldArr[i]
	}
	t.wcd = t.jOldWCD
	t.inMove = false
}

// CriticalPath traces back from the worst sink pin and returns the cells on
// the critical path, source first.
func (t *Analyzer) CriticalPath() []int32 {
	if len(t.sinkPins) == 0 {
		return nil
	}
	worst := t.sinkPins[0]
	wv := t.pinArrival(worst)
	for _, p := range t.sinkPins[1:] {
		if v := t.pinArrival(p); v > wv {
			worst, wv = p, v
		}
	}
	return t.traceBack(worst)
}
