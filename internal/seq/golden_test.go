package seq_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/anneal"
	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/layio"
	"repro/internal/place"
	"repro/internal/seq"
)

// TestSeqGolden pins the sequential flow bit-for-bit on the benchmark
// designs at the fast effort. It is the only guard on the placer's
// congestion model and on the flow's backend dispatch: the simultaneous
// goldens never run the placer. Float comparisons are exact on purpose.
func TestSeqGolden(t *testing.T) {
	cases := []struct {
		name         string
		design       string
		tracks       int
		backend      droute.Backend
		timingDriven bool

		place        place.Result
		detailFailed int
		unrouted     int
		wcd          float64
		hash         string // sha256 of layio.Write(P, Routes)
	}{
		{
			name: "tiny/ordered", design: "tiny", backend: droute.BackendOrdered,
			place: place.Result{Wirelength: 120, Anneal: anneal.Result{FinalCost: 120, BestCost: 120, Temps: 31, TotalMoves: 5760, Accepted: 1729}},
			wcd:   26740.381999999998,
			hash:  "f40c653916849209420288bf268eb9a33610c5b62ed2806236463026e533c3d3",
		},
		{
			// Only below the design's comfortable track count does the
			// placer's congestion penalty bind during annealing.
			name: "tiny/ordered/10", design: "tiny", tracks: 10, backend: droute.BackendOrdered,
			place: place.Result{Wirelength: 118, Anneal: anneal.Result{FinalCost: 118, BestCost: 118, Temps: 35, TotalMoves: 6480, Accepted: 1726}},
			wcd:   28174.076999999997,
			hash:  "aefe7efede0bda01d8d2ca0dd656e88a9ef5608df61fa62ac47dc98ae2732ff3",
		},
		{
			name: "tiny/negotiated", design: "tiny", backend: droute.BackendNegotiated,
			place: place.Result{Wirelength: 120, Anneal: anneal.Result{FinalCost: 120, BestCost: 120, Temps: 31, TotalMoves: 5760, Accepted: 1729}},
			wcd:   26740.381999999998,
			hash:  "7b6c9b43b5cba212bbe1938008580efaa4e9098e3de0d037e170cd45ce15f9e8",
		},
		{
			name: "tiny/lagrange", design: "tiny", backend: droute.BackendLagrange,
			place: place.Result{Wirelength: 120, Anneal: anneal.Result{FinalCost: 120, BestCost: 120, Temps: 31, TotalMoves: 5760, Accepted: 1729}},
			wcd:   26738.491999999998,
			hash:  "e160cfa6450c2e71cf57196027acd768fdf34b1cce63471312d491faf2e875c3",
		},
		{
			name: "tiny/timing-driven", design: "tiny", timingDriven: true,
			place: place.Result{Wirelength: 523.0592551192577, Anneal: anneal.Result{FinalCost: 523.0592551192577, BestCost: 523.0592551192577, Temps: 42, TotalMoves: 7740, Accepted: 1786}},
			wcd:   27312.483000000004,
			hash:  "412b0194a78ae70f971c450c7c02bbf14038183d6f9075f9c9cdb79d7a51e9ce",
		},
		{
			name: "s1/ordered", design: "s1", backend: droute.BackendOrdered,
			place: place.Result{Wirelength: 1797, Anneal: anneal.Result{FinalCost: 1797, BestCost: 1797, Temps: 80, TotalMoves: 87966, Accepted: 22890}},
			wcd:   80810.526999999987,
			hash:  "3355f59150ed25a9aee316f03613d5b28be54bc3a5d2858c65f20eda359cdc8d",
		},
	}
	e := exper.FastEffort()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nl, err := exper.Design(c.design)
			if err != nil {
				t.Fatal(err)
			}
			tracks := exper.DefaultTracks
			if c.tracks != 0 {
				tracks = c.tracks
			}
			a, err := exper.ArchFor(nl, tracks)
			if err != nil {
				t.Fatal(err)
			}
			res, err := seq.Run(a, nl, seq.Config{
				Seed:          1,
				Place:         place.Config{Seed: 1, MovesPerCell: e.PlaceMovesPerCell, MaxTemps: e.PlaceMaxTemps},
				RouteAttempts: e.RouteAttempts,
				RouteBackend:  c.backend,
				TimingDriven:  c.timingDriven,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := layio.Write(&buf, res.P, res.Routes); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			hash := hex.EncodeToString(sum[:])
			if res.PlaceResult != c.place {
				t.Errorf("place result = %#v, golden %#v", res.PlaceResult, c.place)
			}
			if res.DetailFailed != c.detailFailed || res.UnroutedNets != c.unrouted {
				t.Errorf("detail failed %d, unrouted %d; golden %d, %d",
					res.DetailFailed, res.UnroutedNets, c.detailFailed, c.unrouted)
			}
			if res.WCD != c.wcd {
				t.Errorf("WCD = %.17g, golden %.17g", res.WCD, c.wcd)
			}
			if hash != c.hash {
				t.Errorf("layout hash = %s, golden %s", hash, c.hash)
			}
		})
	}
}
