package fabric

import "fmt"

// ChanAssign describes a net's presence in one channel: the column interval
// it must cover there and, once detail-routed, the track and segment run
// assigned (Track == -1 while unrouted in this channel). A net uses exactly
// one track per channel it crosses — the single-track constraint imposed by
// antifuse placement in row-based parts (paper §2.1).
type ChanAssign struct {
	Ch     int
	Lo, Hi int // inclusive column interval to cover

	Track        int // -1 if not detail-routed in this channel
	SegLo, SegHi int // inclusive segment indices on Track when routed
}

// Routed reports whether the channel assignment is detail-routed.
func (c *ChanAssign) Routed() bool { return c.Track >= 0 }

// NetRoute is the complete disposition of one net (paper §3.2 "Net Segment
// Assignments"): unrouted, globally routed (vertical/trunk resources held,
// channel intervals known), or globally and detail routed.
type NetRoute struct {
	// Global is true once vertical resources (if any are needed) are assigned
	// and the per-channel intervals are derived.
	Global bool

	// HasTrunk is true when the net spans multiple channels and therefore
	// holds vertical segments.
	HasTrunk             bool
	TrunkCol, TrunkTrack int
	VLo, VHi             int // inclusive vertical segment indices

	// Chans lists every channel in which the net needs horizontal routing,
	// in ascending channel order.
	Chans []ChanAssign
}

// Reset returns the route to the completely-unrouted state (the caller must
// free fabric resources first).
func (r *NetRoute) Reset() {
	r.Global = false
	r.HasTrunk = false
	r.Chans = r.Chans[:0]
}

// DetailDone reports whether the net is globally routed and every channel
// assignment is routed.
func (r *NetRoute) DetailDone() bool {
	if !r.Global {
		return false
	}
	for i := range r.Chans {
		if !r.Chans[i].Routed() {
			return false
		}
	}
	return true
}

// UnroutedChans returns how many needed channels lack a detailed route.
func (r *NetRoute) UnroutedChans() int {
	n := 0
	for i := range r.Chans {
		if !r.Chans[i].Routed() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy, used by the simultaneous optimizer's undo
// journal.
func (r *NetRoute) Clone() NetRoute {
	c := *r
	c.Chans = append([]ChanAssign(nil), r.Chans...)
	return c
}

// CopyFrom makes r a deep copy of src, reusing r's Chans storage.
func (r *NetRoute) CopyFrom(src *NetRoute) {
	chans := r.Chans[:0]
	chans = append(chans, src.Chans...)
	*r = *src
	r.Chans = chans
}

// Equal reports deep equality (used by tests and consistency checks).
func (r *NetRoute) Equal(o *NetRoute) bool {
	if r.Global != o.Global || r.HasTrunk != o.HasTrunk {
		return false
	}
	if r.HasTrunk && (r.TrunkCol != o.TrunkCol || r.TrunkTrack != o.TrunkTrack || r.VLo != o.VLo || r.VHi != o.VHi) {
		return false
	}
	if len(r.Chans) != len(o.Chans) {
		return false
	}
	for i := range r.Chans {
		if r.Chans[i] != o.Chans[i] {
			return false
		}
	}
	return true
}

// AntifuseCount returns the number of programmed antifuses the route implies:
// horizontal antifuses between consecutive segments, vertical antifuses
// between consecutive vertical segments, one vertical-to-horizontal antifuse
// per routed channel when a trunk exists, plus cross antifuses for pins
// (added by the timing model, not counted here).
func (r *NetRoute) AntifuseCount() int {
	n := 0
	for i := range r.Chans {
		if r.Chans[i].Routed() {
			n += r.Chans[i].SegHi - r.Chans[i].SegLo
			if r.HasTrunk {
				n++ // tap from trunk into this channel's track
			}
		}
	}
	if r.HasTrunk {
		n += r.VHi - r.VLo
	}
	return n
}

// CheckConsistent verifies that the ownership tables are exactly the union of
// the given routes: every resource held by route i is owned by net i in the
// fabric and vice versa. It also recomputes the free-track masks from the
// ownership tables and compares them word for word. Used by tests and the
// optimizer's self-checks.
func (f *Fabric) CheckConsistent(routes []NetRoute) error {
	a := f.A
	wantH := make(map[[3]int]int32)
	wantV := make(map[[3]int]int32)
	for id := range routes {
		r := &routes[id]
		if r.HasTrunk {
			if !r.Global {
				return fmt.Errorf("fabric: net %d has trunk but not global", id)
			}
			for s := r.VLo; s <= r.VHi; s++ {
				key := [3]int{r.TrunkCol, r.TrunkTrack, s}
				if prev, ok := wantV[key]; ok {
					return fmt.Errorf("fabric: nets %d and %d both claim vseg %v", prev, id, key)
				}
				wantV[key] = int32(id)
			}
		}
		for i := range r.Chans {
			ca := &r.Chans[i]
			if !ca.Routed() {
				continue
			}
			segs := a.Seg[ca.Track]
			if segs[ca.SegLo].Start > ca.Lo || segs[ca.SegHi].End <= ca.Hi {
				return fmt.Errorf("fabric: net %d channel %d assignment does not cover [%d,%d]", id, ca.Ch, ca.Lo, ca.Hi)
			}
			for s := ca.SegLo; s <= ca.SegHi; s++ {
				key := [3]int{ca.Ch, ca.Track, s}
				if prev, ok := wantH[key]; ok {
					return fmt.Errorf("fabric: nets %d and %d both claim hseg %v", prev, id, key)
				}
				wantH[key] = int32(id)
			}
		}
	}
	for ch := range f.h {
		for t := range f.h[ch] {
			for s, owner := range f.h[ch][t] {
				want, ok := wantH[[3]int{ch, t, s}]
				if !ok {
					want = Free
				}
				if owner != want {
					return fmt.Errorf("fabric: hseg ch=%d t=%d s=%d owner=%d want=%d", ch, t, s, owner, want)
				}
			}
		}
	}
	for c := range f.v {
		for t := range f.v[c] {
			for s, owner := range f.v[c][t] {
				want, ok := wantV[[3]int{c, t, s}]
				if !ok {
					want = Free
				}
				if owner != want {
					return fmt.Errorf("fabric: vseg col=%d t=%d s=%d owner=%d want=%d", c, t, s, owner, want)
				}
			}
		}
	}
	return f.checkFreeMasks()
}

// checkFreeMasks recomputes the free-track masks from the ownership tables
// and compares them word for word with the maintained ones.
func (f *Fabric) checkFreeMasks() error {
	a := f.A
	want := make([]uint64, len(f.free))
	for ch, tracks := range f.h {
		row := ch * a.Cols * f.fw
		for t, owners := range tracks {
			bit := uint64(1) << (t & 63)
			for s, owner := range owners {
				if owner != Free {
					continue
				}
				seg := a.Seg[t][s]
				for i := row + seg.Start*f.fw + t>>6; i < row+seg.End*f.fw; i += f.fw {
					want[i] |= bit
				}
			}
		}
	}
	for i, w := range want {
		if f.free[i] != w {
			col := i / f.fw
			return fmt.Errorf("fabric: free-track mask ch=%d col=%d word %d = %#x want %#x",
				col/a.Cols, col%a.Cols, i%f.fw, f.free[i], w)
		}
	}
	return nil
}

// InstallRoute allocates every resource named by r for net id. It is the
// inverse of RemoveRoute and is used when restoring a journaled route.
func (f *Fabric) InstallRoute(id int32, r *NetRoute) {
	if r.HasTrunk {
		f.AllocV(r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi, id)
	}
	for i := range r.Chans {
		if r.Chans[i].Routed() {
			f.AllocH(r.Chans[i].Ch, r.Chans[i].Track, r.Chans[i].SegLo, r.Chans[i].SegHi, id)
		}
	}
}

// RemoveRoute frees every resource named by r for net id. The route
// descriptor itself is left unchanged; callers Reset it if the net is being
// ripped up (as opposed to journaled).
func (f *Fabric) RemoveRoute(id int32, r *NetRoute) {
	if r.HasTrunk {
		f.FreeV(r.TrunkCol, r.TrunkTrack, r.VLo, r.VHi, id)
	}
	for i := range r.Chans {
		if r.Chans[i].Routed() {
			f.FreeH(r.Chans[i].Ch, r.Chans[i].Track, r.Chans[i].SegLo, r.Chans[i].SegHi, id)
		}
	}
}
