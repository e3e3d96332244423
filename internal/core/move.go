package core

import (
	"math/rand"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
)

// jEntry journals one net's pre-move route. ripped marks nets whose pins
// moved (their delays must be refreshed even if the route descriptor ends up
// bitwise identical, e.g. unrouted before and after).
type jEntry struct {
	id      int32
	old     fabric.NetRoute
	ripped  bool
	oldMaxD float64 // pre-move worst sink delay (criticality term only)
}

// Propose implements anneal.Problem: apply one tentative move (cell swap /
// translation, or pinmap reassignment), cascade the incremental ripup and
// reroute, update timing, and return the cost delta. Accept or Reject must
// follow.
func (o *Optimizer) Propose(rng *rand.Rand) float64 {
	if !o.cfg.DisablePinmapMoves && rng.Float64() < pinmapProb {
		cell := int32(rng.Intn(o.NL.NumCells()))
		nv := uint8((int(o.P.Pm[cell]) + 1 + rng.Intn(arch.NumPinmaps-1)) % arch.NumPinmaps)
		return o.proposePinmap(cell, nv)
	}
	// Criticality-directed selection: with probability CritBias draw the swap
	// source from the cells on near-critical nets instead of uniformly. The
	// length guard precedes the Float64 draw so the RNG stream is untouched
	// whenever the extension is off — fixed-seed runs stay bit-identical.
	if o.cfg.CritBias > 0 && len(o.critCells) > 0 && rng.Float64() < o.cfg.CritBias {
		cell := o.critCells[rng.Intn(len(o.critCells))]
		la := o.P.Loc[cell]
		return o.proposeSwap(la, o.pickPartner(rng, la))
	}
	var la layout.Loc
	for {
		la = layout.Loc{Row: rng.Intn(o.A.Rows), Col: rng.Intn(o.A.Cols)}
		if o.P.CellAt(la.Row, la.Col) >= 0 {
			break
		}
	}
	lb := o.pickPartner(rng, la)
	return o.proposeSwap(la, lb)
}

// pickPartner chooses the destination slot for a swap: uniform over the
// array, or — with RangeLimit — within the adaptive window around the source.
func (o *Optimizer) pickPartner(rng *rand.Rand, la layout.Loc) layout.Loc {
	for {
		var lb layout.Loc
		if o.cfg.RangeLimit {
			w := o.window
			lb = layout.Loc{
				Row: clampInt(la.Row+rng.Intn(2*w+1)-w, 0, o.A.Rows-1),
				Col: clampInt(la.Col+rng.Intn(2*w+1)-w, 0, o.A.Cols-1),
			}
		} else {
			lb = layout.Loc{Row: rng.Intn(o.A.Rows), Col: rng.Intn(o.A.Cols)}
		}
		if lb != la {
			return lb
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (o *Optimizer) begin(kind moveKind) float64 {
	if o.moveKind != moveNone {
		panic("core: Propose while a move is open")
	}
	o.moveKind = kind
	o.epoch++
	o.journal = o.journal[:0]
	o.jOldG, o.jOldD, o.jOldDC = o.g, o.d, o.dc
	o.jCritSum = o.critSum
	if o.timingOn() {
		o.An.Begin()
	}
	return o.Cost()
}

func (o *Optimizer) proposeSwap(la, lb layout.Loc) float64 {
	before := o.begin(moveSwap)
	o.swapA, o.swapB = la, lb
	o.ripCell(o.P.CellAt(la.Row, la.Col))
	o.ripCell(o.P.CellAt(lb.Row, lb.Col))
	o.P.Swap(la, lb)
	o.rerouteAndTime()
	return o.Cost() - before
}

func (o *Optimizer) proposePinmap(cell int32, nv uint8) float64 {
	before := o.begin(movePinmap)
	o.pmCell, o.pmOld = cell, o.P.Pm[cell]
	o.ripCell(cell)
	o.P.SetPinmap(cell, nv)
	o.rerouteAndTime()
	return o.Cost() - before
}

// journalNet records a net's current route once per move; returns its entry.
func (o *Optimizer) journalNet(id int32, ripped bool) {
	if o.netStamp[id] == o.epoch {
		if ripped {
			// Upgrade an existing entry (cannot happen in practice: rips
			// precede reroutes, but keep the invariant airtight).
			for i := range o.journal {
				if o.journal[i].id == id {
					o.journal[i].ripped = true
					break
				}
			}
		}
		return
	}
	o.netStamp[id] = o.epoch
	if len(o.journal) < cap(o.journal) {
		o.journal = o.journal[:len(o.journal)+1]
	} else {
		o.journal = append(o.journal, jEntry{})
	}
	e := &o.journal[len(o.journal)-1]
	e.id = id
	e.ripped = ripped
	e.old.CopyFrom(&o.Rts[id])
	if o.netMaxD != nil {
		e.oldMaxD = o.netMaxD[id]
	}
}

// ripCell rips up every net attached to the cell: resources are freed, the
// route descriptors reset, and G/D updated. The nets join the unrouted pool
// that rerouteAndTime drains.
func (o *Optimizer) ripCell(cell int32) {
	if cell < 0 {
		return
	}
	c := &o.NL.Cells[cell]
	if c.Out >= 0 {
		o.ripNet(c.Out)
	}
	for _, in := range c.In {
		if in >= 0 {
			o.ripNet(in)
		}
	}
}

func (o *Optimizer) ripNet(id int32) {
	if o.netStamp[id] == o.epoch {
		// Already ripped via another pin of the moved cell(s).
		return
	}
	o.journalNet(id, true)
	o.F.Stats.RipUps++
	r := &o.Rts[id]
	if r.Global {
		o.g++
		o.dc -= r.UnroutedChans()
	}
	if r.DetailDone() {
		o.d++
	}
	o.F.RemoveRoute(id, r)
	r.Reset()
}

// rerouteAndTime is the paper's incremental routing cascade (§3.3–§3.4):
// every currently-unroutable net (the ripped ones plus any that were stuck
// before this move) is attempted again, longest first — global routing, then
// the missing channels of the detailed routing — and the timing view is
// refreshed for every net whose embedding or pins changed.
func (o *Optimizer) rerouteAndTime() {
	o.worklist = o.worklist[:0]
	for id := range o.Rts {
		if !o.Rts[id].DetailDone() {
			o.worklist = append(o.worklist, int32(id))
		}
	}
	o.sortWorklist()

	for _, id := range o.worklist {
		r := &o.Rts[id]
		if !r.Global {
			o.journalNet(id, false)
			if !groute.Route(o.F, o.P, id, r) {
				continue
			}
			o.g--
			o.dc += r.UnroutedChans()
		}
		if !r.DetailDone() {
			o.journalNet(id, false)
			u0 := r.UnroutedChans()
			missing := droute.RouteNet(o.F, id, r, droute.DefaultCost())
			o.dc += missing - u0
			if missing == 0 {
				o.d--
			}
		} else {
			// Global route with no channel needs (e.g. sink-less nets).
			o.d--
		}
	}

	if !o.timingOn() {
		return
	}
	critOn := o.critOn()
	var cv []float64
	if critOn {
		cv = o.crit.Values()
	}
	for i := range o.journal {
		e := &o.journal[i]
		if len(o.NL.Nets[e.id].Sinks) == 0 {
			continue
		}
		if !e.ripped && o.Rts[e.id].Equal(&e.old) {
			continue // attempted but unchanged, pins unmoved: delays stand
		}
		d, err := o.dcalc.Delays(o.P, e.id, &o.Rts[e.id])
		if err != nil {
			panic("core: " + err.Error())
		}
		o.An.SetNetDelays(e.id, d)
		if critOn {
			m := 0.0
			for _, v := range d {
				if v > m {
					m = v
				}
			}
			o.critSum += cv[e.id] * (m - o.netMaxD[e.id])
			o.netMaxD[e.id] = m
		}
	}
	o.An.Propagate()
}

// Accept implements anneal.Problem.
func (o *Optimizer) Accept() {
	if o.moveKind == moveNone {
		panic("core: Accept without an open move")
	}
	if o.timingOn() {
		o.An.Commit()
	}
	switch o.moveKind {
	case moveSwap:
		o.countPerturbed(o.P.CellAt(o.swapA.Row, o.swapA.Col))
		o.countPerturbed(o.P.CellAt(o.swapB.Row, o.swapB.Col))
	case movePinmap:
		if o.P.Pm[o.pmCell] != o.pmOld {
			o.countPerturbed(o.pmCell)
		}
	}
	o.moveKind = moveNone
}

func (o *Optimizer) countPerturbed(cell int32) {
	if cell < 0 {
		return
	}
	if o.cellStamp[cell] <= o.cellEpochBase {
		o.cellStamp[cell] = o.epoch
		o.perturbed++
	}
}

// Reject implements anneal.Problem: every route, placement, counter and
// timing change of the tentative move is rolled back exactly.
func (o *Optimizer) Reject() {
	if o.moveKind == moveNone {
		panic("core: Reject without an open move")
	}
	if o.timingOn() {
		o.An.Revert()
	}
	// Free whatever the touched nets now hold, then reinstate the journaled
	// routes (the old set is mutually consistent, so two phases cannot
	// collide).
	for i := range o.journal {
		e := &o.journal[i]
		o.F.RemoveRoute(e.id, &o.Rts[e.id])
	}
	for i := range o.journal {
		e := &o.journal[i]
		o.Rts[e.id].CopyFrom(&e.old)
		o.F.InstallRoute(e.id, &o.Rts[e.id])
	}
	switch o.moveKind {
	case moveSwap:
		o.P.Swap(o.swapA, o.swapB)
	case movePinmap:
		o.P.SetPinmap(o.pmCell, o.pmOld)
	}
	o.g, o.d, o.dc = o.jOldG, o.jOldD, o.jOldDC
	if o.netMaxD != nil {
		for i := range o.journal {
			o.netMaxD[o.journal[i].id] = o.journal[i].oldMaxD
		}
		o.critSum = o.jCritSum
	}
	o.moveKind = moveNone
}
