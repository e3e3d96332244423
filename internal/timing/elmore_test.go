package timing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/droute"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// pairNetlist: one source pad driving one comb sink through net "n".
func pairNetlist() *netlist.Netlist {
	b := netlist.NewBuilder("pair")
	b.Input("d", "n")
	b.Comb("s", 3000, "y", "n")
	b.Output("po", "y")
	return b.MustBuild()
}

func flatArch(segPattern []int, tracks int) *arch.Arch {
	cols := 0
	for _, l := range segPattern {
		cols += l
	}
	p := arch.Default(1, cols, tracks)
	p.SegPattern = segPattern
	p.PhaseStep = 0
	return arch.MustNew(p)
}

func placePair(t *testing.T, a *arch.Arch, nl *netlist.Netlist, dCol, sCol int) *layout.Placement {
	t.Helper()
	p, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d, s := nl.CellID("d"), nl.CellID("s")
	p.Swap(p.Loc[d], layout.Loc{Row: 0, Col: dCol})
	p.Swap(p.Loc[s], layout.Loc{Row: 0, Col: sCol})
	p.SetPinmap(d, 3) // output bottom -> channel 0
	p.SetPinmap(s, 2) // inputs bottom -> channel 0
	return p
}

// TestElmoreHandComputed checks NetDelays against an independently derived
// closed form for a two-pin net on a single full-width segment.
func TestElmoreHandComputed(t *testing.T) {
	a := flatArch([]int{8}, 1)
	nl := pairNetlist()
	p := placePair(t, a, nl, 2, 5)
	id := nl.NetID("n")
	r := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{
		{Ch: 0, Lo: 2, Hi: 5, Track: 0, SegLo: 0, SegHi: 0},
	}}
	got, err := NetDelays(p, id, &r, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d delays, want 1", len(got))
	}
	rc := a.RC
	// Hand derivation: source -RDriver+RCross-> d(2) -3 cols-> s(5) -RCross-> pin.
	// Wire cap: overhang [0,2)=2 at d, span 3 split 1.5/1.5, overhang [5,8)=3 at s.
	cd := rc.CCross + 2*rc.CUnit + 1.5*rc.CUnit
	cs := 1.5*rc.CUnit + 3*rc.CUnit
	cpin := rc.CCross + rc.CPin
	total := cd + cs + cpin
	want := (rc.RDriver+rc.RCross)*total + (rc.RUnit*3)*(cs+cpin) + rc.RCross*cpin
	if math.Abs(got[0]-want) > 1e-9*want {
		t.Errorf("delay = %v, want %v", got[0], want)
	}
}

// TestMoreAntifusesSlower: identical span, but a route crossing three extra
// horizontal antifuses must be slower — delay tracks antifuse count, not just
// length (the paper's core timing observation).
func TestMoreAntifusesSlower(t *testing.T) {
	p := arch.Default(1, 8, 2)
	p.SegPattern = []int{2, 2, 2, 2, 8}
	p.PhaseStep = 8 // track 0: four short segments; track 1: one long segment
	a := arch.MustNew(p)
	nl := pairNetlist()
	pl := placePair(t, a, nl, 0, 7)
	id := nl.NetID("n")

	seg := func(track int) fabric.NetRoute {
		sl, sh := a.SegRange(track, 0, 7)
		return fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{
			{Ch: 0, Lo: 0, Hi: 7, Track: track, SegLo: sl, SegHi: sh},
		}}
	}
	short := seg(0)
	long := seg(1)
	dShort, err := NetDelays(pl, id, &short, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dLong, err := NetDelays(pl, id, &long, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dShort[0] <= dLong[0] {
		t.Errorf("4-segment route (%.1f ps) should be slower than 1-segment route (%.1f ps)", dShort[0], dLong[0])
	}
	// Sanity: the difference should be substantial (3 antifuses in the path).
	if dShort[0] < 1.2*dLong[0] {
		t.Errorf("antifuse penalty too weak: %.1f vs %.1f ps", dShort[0], dLong[0])
	}
}

// TestShorterNetCanBeSlower reproduces the delay non-monotonicity claim: a
// shorter interval forced across several antifuses can be slower than a
// longer interval on one segment.
func TestShorterNetCanBeSlower(t *testing.T) {
	p := arch.Default(1, 12, 2)
	// Track 0: six 1-column segments then [6,12); track 1: one [0,12) segment.
	p.SegPattern = []int{1, 1, 1, 1, 1, 1, 6, 12}
	p.PhaseStep = 12
	a := arch.MustNew(p)
	nl := pairNetlist()

	// Short net: span 5 over track 0 (crosses 5 antifuses).
	pShort := placePair(t, a, nl, 0, 5)
	sl, sh := a.SegRange(0, 0, 5)
	rShort := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{{Ch: 0, Lo: 0, Hi: 5, Track: 0, SegLo: sl, SegHi: sh}}}
	dShort, err := NetDelays(pShort, nl.NetID("n"), &rShort, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Long net: span 9 over track 1 (single segment, no antifuses).
	pLong := placePair(t, a, nl, 0, 9)
	rLong := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{{Ch: 0, Lo: 0, Hi: 9, Track: 1, SegLo: 0, SegHi: 0}}}
	dLong, err := NetDelays(pLong, nl.NetID("n"), &rLong, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dShort[0] <= dLong[0] {
		t.Errorf("shorter-but-fragmented net (%.1f ps) should exceed longer single-segment net (%.1f ps)",
			dShort[0], dLong[0])
	}
}

// routeDesign places and fully routes a netgen design; skips nets that fail
// (callers assert on the failure count).
func routeDesign(t *testing.T, a *arch.Arch, nl *netlist.Netlist, seed int64) (*layout.Placement, *fabric.Fabric, []fabric.NetRoute, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := fabric.New(a)
	routes := make([]fabric.NetRoute, nl.NumNets())
	gFail := groute.RouteAll(f, p, routes)
	dFail := droute.RouteAllDetailed(f, routes, droute.DefaultCost(), 4, rng)
	return p, f, routes, len(gFail) + dFail
}

func TestNetDelaysOnRoutedDesign(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 16, 30)) // generous tracks
	p, f, routes, failed := routeDesign(t, a, nl, 3)
	if failed > 0 {
		t.Fatalf("%d nets unrouted despite generous fabric", failed)
	}
	if err := f.CheckConsistent(routes); err != nil {
		t.Fatal(err)
	}
	for id := range routes {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		d, err := NetDelays(p, int32(id), &routes[id], 1.0)
		if err != nil {
			t.Fatalf("net %d: %v", id, err)
		}
		for si, v := range d {
			if v <= 0 || math.IsNaN(v) || v > 1e6 {
				t.Errorf("net %d sink %d: implausible delay %v", id, si, v)
			}
		}
	}
}

func TestNetDelaysRejectsUnrouted(t *testing.T) {
	nl := pairNetlist()
	a := flatArch([]int{8}, 1)
	p := placePair(t, a, nl, 1, 6)
	r := fabric.NetRoute{Global: true, Chans: []fabric.ChanAssign{{Ch: 0, Lo: 1, Hi: 6, Track: -1}}}
	if _, err := NetDelays(p, nl.NetID("n"), &r, 1.0); err == nil {
		t.Error("unrouted net accepted")
	}
}

func TestEstimateDelays(t *testing.T) {
	nl := pairNetlist()
	a := flatArch([]int{4, 4}, 2)
	id := nl.NetID("n")

	near := placePair(t, a, nl, 3, 4)
	far := placePair(t, a, nl, 0, 7)
	dNear := EstimateDelays(near, id)
	dFar := EstimateDelays(far, id)
	if len(dNear) != 1 || len(dFar) != 1 {
		t.Fatal("wrong arity")
	}
	if dNear[0] <= 0 || dFar[0] <= dNear[0] {
		t.Errorf("estimate not increasing with span: near %.1f far %.1f", dNear[0], dFar[0])
	}
}

// Estimates should be the right order of magnitude relative to the detailed
// model — the paper calls them crude but they steer the early anneal.
func TestEstimateWithinFactorOfElmore(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 16, 30))
	p, _, routes, failed := routeDesign(t, a, nl, 5)
	if failed > 0 {
		t.Skip("routing incomplete; covered elsewhere")
	}
	checked := 0
	for id := range routes {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		exact, err := NetDelays(p, int32(id), &routes[id], 1.0)
		if err != nil {
			t.Fatal(err)
		}
		est := EstimateDelays(p, int32(id))
		maxExact := 0.0
		for _, v := range exact {
			if v > maxExact {
				maxExact = v
			}
		}
		if est[0] < maxExact/6 || est[0] > maxExact*6 {
			t.Errorf("net %d: estimate %.1f vs exact %.1f beyond 6x", id, est[0], maxExact)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d nets checked", checked)
	}
}

func TestVerifyAgreement(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 40, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(6, 16, 30))
	p, _, routes, failed := routeDesign(t, a, nl, 7)
	if failed > 0 {
		t.Skip("routing incomplete")
	}
	// In-loop WCD: analyzer fed with the in-loop Elmore model.
	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	an.Begin()
	for id := range routes {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		d, err := NetDelays(p, int32(id), &routes[id], 1.0)
		if err != nil {
			t.Fatal(err)
		}
		an.SetNetDelays(int32(id), d)
	}
	inLoop := an.Propagate()
	an.Commit()

	res, err := Verify(p, routes, inLoop)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCD < inLoop {
		t.Errorf("independent model (%.1f) should not be faster than in-loop (%.1f)", res.WCD, inLoop)
	}
	if res.Agreement < 0.85 || res.Agreement > 1.001 {
		t.Errorf("agreement %.3f outside [0.85, 1.0] (paper: within 90%%)", res.Agreement)
	}
}

// TestAnalyzerFill: Fill gives completely routed nets their Elmore delays at
// wire load 1.0 and any other net the estimate, agrees with a manual
// per-net fill, and on a failing route reverts to the committed state.
func TestAnalyzerFill(t *testing.T) {
	nl, err := netgen.Generate(netgen.Params{Name: "t", Inputs: 4, Outputs: 3, Seq: 2, Comb: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.MustNew(arch.Default(5, 16, 30))
	p, _, routes, failed := routeDesign(t, a, nl, 3)
	if failed > 0 {
		t.Fatalf("%d nets unrouted despite generous fabric", failed)
	}
	first, last := int32(-1), int32(-1)
	for id := range routes {
		if len(nl.Nets[id].Sinks) > 0 {
			if first < 0 {
				first = int32(id)
			}
			last = int32(id)
		}
	}
	saved := routes[first].Clone()
	routes[first].Reset()

	an, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	var dc DelayCalc
	if err := an.Fill(p, routes, &dc); err != nil {
		t.Fatal(err)
	}
	manual, err := NewAnalyzer(nl)
	if err != nil {
		t.Fatal(err)
	}
	manual.Begin()
	for id := range routes {
		if len(nl.Nets[id].Sinks) == 0 {
			continue
		}
		want := EstimateDelays(p, int32(id))
		if int32(id) != first {
			if want, err = NetDelays(p, int32(id), &routes[id], 1.0); err != nil {
				t.Fatal(err)
			}
		}
		for si, v := range an.NetDelay(int32(id)) {
			if v != want[si] {
				t.Fatalf("net %d sink %d: Fill stored %v, want %v", id, si, v, want[si])
			}
		}
		manual.SetNetDelays(int32(id), want)
	}
	manual.Propagate()
	manual.Commit()
	if an.WCD() != manual.WCD() {
		t.Fatalf("Fill WCD %v, manual fill %v", an.WCD(), manual.WCD())
	}

	// Restore the reset net (a real delay change) and give the last net a
	// route that reports DetailDone but misses its driver channel: Fill
	// must fail and leave the committed view untouched.
	arr, wcd := analyzerArrivals(an, nl), an.WCD()
	est := append([]float64(nil), an.NetDelay(first)...)
	routes[first] = saved
	routes[last] = fabric.NetRoute{Global: true}
	if err := an.Fill(p, routes, &dc); err == nil {
		t.Fatal("Fill accepted a route that misses its driver channel")
	}
	for i, v := range analyzerArrivals(an, nl) {
		if v != arr[i] {
			t.Fatalf("cell %d arrival %v after failed Fill, want %v", i, v, arr[i])
		}
	}
	if an.WCD() != wcd {
		t.Errorf("WCD %v after failed Fill, want %v", an.WCD(), wcd)
	}
	for si, v := range an.NetDelay(first) {
		if v != est[si] {
			t.Errorf("net %d sink %d delay %v after failed Fill, want %v", first, si, v, est[si])
		}
	}
}
