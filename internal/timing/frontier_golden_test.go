package timing

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netgen"
)

// TestFrontierGolden replays a fixed seeded script of SetNetDelays /
// Propagate / Commit / Revert on a generated design and pins the analyzer's
// activity counters, the final worst-case delay and every arrival (folded
// into one hash together with the WCD after each Propagate). The expected
// values were recorded with the binary-heap frontier that preceded the
// level-bucket frontier, so the test shows the two relax exactly the same
// cells and reach exactly the same arrivals.
func TestFrontierGolden(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "golden", Inputs: 12, Outputs: 10, Seq: 16, Comb: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1994))
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	var d []float64
	for move := 0; move < 300; move++ {
		an.Begin()
		for k := 0; k < 1+rng.Intn(6); k++ {
			id := int32(rng.Intn(nl.NumNets()))
			d = d[:0]
			for range nl.Nets[id].Sinks {
				d = append(d, math.Round(rng.Float64()*4000))
			}
			an.SetNetDelays(id, d)
		}
		put(an.Propagate())
		if rng.Intn(3) == 0 {
			an.Revert()
		} else {
			an.Commit()
		}
	}
	for c := int32(0); c < int32(nl.NumCells()); c++ {
		put(an.Arrival(c))
	}

	const (
		wantNetUpdates   = 864
		wantPropagates   = 300
		wantCellsRelaxed = 8677
		wantWCDBits      = 0x40ee506000000000
		wantHash         = 0x99740073f12f9d04
	)
	s := an.Stats()
	if s.NetUpdates != wantNetUpdates || s.Propagates != wantPropagates || s.CellsRelaxed != wantCellsRelaxed {
		t.Errorf("stats = %+v, want {NetUpdates:%d Propagates:%d CellsRelaxed:%d}",
			s, wantNetUpdates, wantPropagates, wantCellsRelaxed)
	}
	if got := math.Float64bits(an.WCD()); got != wantWCDBits {
		t.Errorf("WCD bits = %#x (%v), want %#x", got, an.WCD(), uint64(wantWCDBits))
	}
	if got := h.Sum64(); got != wantHash {
		t.Errorf("per-move WCD and final arrival hash = %#x, want %#x", got, uint64(wantHash))
	}
}
