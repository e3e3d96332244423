package droute

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/fabric"
)

// scanPickTrack is the reference track search: it tests every track's
// segment run with HRangeFree, in ascending track order, with the same cost
// and the same strict tie-break as PickTrack.
func scanPickTrack(f *fabric.Fabric, ch, lo, hi int, cost Cost) (track, segLo, segHi int, ok bool) {
	a := f.A
	best := math.Inf(1)
	track = -1
	for t := 0; t < a.Tracks; t++ {
		sl, sh := a.SegRange(t, lo, hi)
		if !f.HRangeFree(ch, t, sl, sh) {
			continue
		}
		segs := a.Seg[t]
		waste := float64((segs[sh].End - segs[sl].Start) - (hi - lo + 1))
		c := cost.WWaste*waste + cost.WSegs*float64(sh-sl+1)
		if c < best {
			best, track, segLo, segHi = c, t, sl, sh
		}
	}
	return track, segLo, segHi, track >= 0
}

// checkPickTrack fails the test unless PickTrack and the reference scan
// return the same (track, segLo, segHi, ok) for the query.
func checkPickTrack(t *testing.T, f *fabric.Fabric, ch, lo, hi int, cost Cost) {
	t.Helper()
	gt, gl, gh, gok := PickTrack(f, ch, lo, hi, cost)
	wt, wl, wh, wok := scanPickTrack(f, ch, lo, hi, cost)
	if gt != wt || gl != wl || gh != wh || gok != wok {
		t.Fatalf("PickTrack(ch=%d, [%d,%d], %+v) = (%d,%d,%d,%v), scan = (%d,%d,%d,%v)",
			ch, lo, hi, cost, gt, gl, gh, gok, wt, wl, wh, wok)
	}
}

// FuzzPickTrack: on random architectures of 1…130 tracks (free-track masks
// of one, two and three words) under a random sequence of AllocH/FreeH,
// PickTrack must agree exactly with the reference scan on random intervals,
// and the fabric's masks must stay consistent with its ownership tables.
func FuzzPickTrack(f *testing.F) {
	f.Add(uint8(6), uint8(24), uint8(4), uint8(9), uint8(3), uint8(40), int64(1))
	f.Add(uint8(63), uint8(30), uint8(2), uint8(5), uint8(1), uint8(200), int64(2))
	f.Add(uint8(64), uint8(12), uint8(1), uint8(1), uint8(0), uint8(255), int64(3))
	f.Add(uint8(129), uint8(41), uint8(7), uint8(3), uint8(6), uint8(120), int64(4))
	f.Fuzz(func(t *testing.T, tracksB, colsB, seg1, seg2, phase, opsB uint8, seed int64) {
		p := arch.Default(2, int(colsB)%40+2, int(tracksB)%130+1)
		p.SegPattern = []int{int(seg1)%9 + 1, int(seg2)%9 + 1}
		p.PhaseStep = int(phase) % 7
		a, err := arch.New(p)
		if err != nil {
			t.Fatalf("clamped params rejected: %v", err)
		}
		fab := fabric.New(a)
		rng := rand.New(rand.NewSource(seed))
		interval := func() (ch, lo, hi int) {
			ch = rng.Intn(a.Channels())
			lo = rng.Intn(a.Cols)
			return ch, lo, lo + rng.Intn(a.Cols-lo)
		}

		// routes[id] describes net id's one allocation (empty once freed).
		var routes []fabric.NetRoute
		var live []int
		for op := 0; op < int(opsB); op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				id := live[k]
				ca := &routes[id].Chans[0]
				fab.FreeH(ca.Ch, ca.Track, ca.SegLo, ca.SegHi, int32(id))
				routes[id] = fabric.NetRoute{}
				live = append(live[:k], live[k+1:]...)
			} else {
				ch, lo, hi := interval()
				tr := rng.Intn(a.Tracks)
				sl, sh := a.SegRange(tr, lo, hi)
				if fab.HRangeFree(ch, tr, sl, sh) {
					id := len(routes)
					fab.AllocH(ch, tr, sl, sh, int32(id))
					routes = append(routes, fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{
						{Ch: ch, Lo: lo, Hi: hi, Track: tr, SegLo: sl, SegHi: sh}}})
					live = append(live, id)
				}
			}
			ch, lo, hi := interval()
			checkPickTrack(t, fab, ch, lo, hi, DefaultCost())
			checkPickTrack(t, fab, ch, lo, hi, Cost{WWaste: rng.Float64() * 3, WSegs: rng.Float64() * 8})
			checkPickTrack(t, fab, ch, lo, hi, Cost{}) // all ties: lowest free track
		}
		if err := fab.CheckConsistent(routes); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPickTrackWordBoundaries pins the track search at channel widths around
// the 64-bit mask word size: with every track of channel 1 taken except one,
// PickTrack must find exactly that track, wherever it sits in the mask, and
// must fail once it is taken too.
func TestPickTrackWordBoundaries(t *testing.T) {
	for _, tracks := range []int{63, 64, 65, 128} {
		a := arch.MustNew(arch.Default(2, 30, tracks))
		for _, keep := range []int{0, 1, 62, 63, 64, 65, 127} {
			if keep >= tracks {
				continue
			}
			fab := fabric.New(a)
			for tr := 0; tr < tracks; tr++ {
				if tr != keep {
					fab.AllocH(1, tr, 0, len(a.Seg[tr])-1, int32(tr))
				}
			}
			for _, iv := range [][2]int{{0, 0}, {3, 17}, {0, 29}, {29, 29}} {
				lo, hi := iv[0], iv[1]
				tr, sl, sh, ok := PickTrack(fab, 1, lo, hi, DefaultCost())
				wl, wh := a.SegRange(keep, lo, hi)
				if !ok || tr != keep || sl != wl || sh != wh {
					t.Errorf("tracks=%d keep=%d [%d,%d]: got (%d,%d,%d,%v), want (%d,%d,%d,true)",
						tracks, keep, lo, hi, tr, sl, sh, ok, keep, wl, wh)
				}
				checkPickTrack(t, fab, 0, lo, hi, DefaultCost()) // untouched channel
			}
			fab.AllocH(1, keep, 0, len(a.Seg[keep])-1, int32(keep))
			if tr, _, _, ok := PickTrack(fab, 1, 3, 17, DefaultCost()); ok {
				t.Errorf("tracks=%d keep=%d: full channel returned track %d", tracks, keep, tr)
			}
		}

		// Random occupancy across all three channels, checked against the scan.
		rng := rand.New(rand.NewSource(int64(tracks)))
		fab := fabric.New(a)
		for i := 0; i < 6*tracks; i++ {
			ch, tr, col := rng.Intn(a.Channels()), rng.Intn(tracks), rng.Intn(a.Cols)
			s := a.SegIndexAt(tr, col)
			if fab.HOwner(ch, tr, s) == fabric.Free {
				fab.AllocH(ch, tr, s, s, int32(i))
			}
		}
		for i := 0; i < 200; i++ {
			ch, lo := rng.Intn(a.Channels()), rng.Intn(a.Cols)
			checkPickTrack(t, fab, ch, lo, lo+rng.Intn(a.Cols-lo), DefaultCost())
		}
	}
}
