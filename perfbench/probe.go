package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layio"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/timing"
)

const (
	// probeOps is the number of single-net operations, and separately of
	// Propose/Reject pairs, run on each probed clone.
	probeOps = 1500
	// pickReps repeats each read-only PickTrack call so that one clock read
	// covers several calls.
	pickReps = 8
	// routeAllReps, ioReps: repetitions of the route-all phase per backend
	// and of each store/layio call.
	routeAllReps = 5
	ioReps       = 30
)

// timings collects per-call durations by per-layer metric name; each is
// reported as the mean per call in the metric's unit.
type timings map[string][]time.Duration

func (t timings) add(name string, d time.Duration) { t[name] = append(t[name], d) }

func (t timings) set(r *run) {
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}
	for _, m := range perLayer {
		ds, ok := t[m.name]
		if !ok {
			continue
		}
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		r.set(m.name, float64(sum.Nanoseconds())/float64(len(ds))/scale[m.unit])
	}
}

// probeAll reports the traced run's numbers for one finished flow and the
// counts c of the pass it belongs to: per-call times of the move pipeline
// on clones taken right after core.New (hot) and after Run (cold), the
// route-all phase per backend, and the store and layio calls on this
// flow's result.
func probeAll(r *run, t timings, f *flow, c *counts) error {
	c.set(r)
	for i, o := range []*core.Optimizer{f.hot, f.o.Clone()} {
		r.attempt(probeMoves(o, deriveSeed(r.seed, 7, i), t))
	}
	probeRouteAll(f, t)
	r.set("route.routeall_frac", (mean(durations(t["groute.routeall_ms"]))+
		mean(durations(t["droute.routeall_ordered_ms"])))/(c.run.Seconds()/float64(c.designs)))
	return probeIO(r, f, t)
}

// probeMoves runs a seeded stream of single-net operations through the
// public layer functions on o, timing each call, then a stream of
// Propose/Reject pairs. Every operation is undone, and the probe checks
// that o ends bit-identical to how it started and still passes
// Optimizer.Check (which includes fabric.CheckConsistent).
func probeMoves(o *core.Optimizer, seed int64, t timings) error {
	hash0, wcd0 := exper.LayoutHash(o), o.WCD()
	rng := rand.New(rand.NewSource(seed))
	cost := droute.DefaultCost()
	var dc timing.DelayCalc
	var nets []int32
	for id := range o.NL.Nets {
		if len(o.NL.Nets[id].Sinks) > 0 {
			nets = append(nets, int32(id))
		}
	}
	var old fabric.NetRoute
	var slow []float64
	for i := 0; i < probeOps; i++ {
		id := nets[rng.Intn(len(nets))]
		rt := &o.Rts[id]
		old.CopyFrom(rt)

		start := time.Now()
		o.F.RemoveRoute(id, rt)
		t.add("fabric.remove_ns", time.Since(start))
		rt.Reset()

		start = time.Now()
		routed := groute.Route(o.F, o.P, id, rt)
		t.add("groute.route_ns", time.Since(start))
		if routed {
			for _, ca := range rt.Chans {
				start = time.Now()
				for k := 0; k < pickReps; k++ {
					droute.PickTrack(o.F, ca.Ch, ca.Lo, ca.Hi, cost)
				}
				t.add("droute.picktrack_ns", time.Since(start)/pickReps)
			}
			start = time.Now()
			droute.RouteNet(o.F, id, rt, cost)
			t.add("droute.routenet_ns", time.Since(start))
		}
		if rt.DetailDone() {
			start = time.Now()
			d, err := dc.NetDelays(o.P, id, rt, 1.0)
			t.add("timing.netdelays_ns", time.Since(start))
			if err != nil {
				return err
			}
			// A rerouted net often keeps its delays, which would leave
			// Propagate nothing to do; a 10% slower net makes it relax the
			// net's fan-out cone, as a move that changes delays does.
			slow = slow[:0]
			for _, v := range d {
				slow = append(slow, 1.1*v)
			}
			o.An.Begin()
			o.An.SetNetDelays(id, slow)
			start = time.Now()
			o.An.Propagate()
			t.add("timing.propagate_us", time.Since(start))
			o.An.Revert()
		}

		o.F.RemoveRoute(id, rt)
		rt.CopyFrom(&old)
		start = time.Now()
		o.F.InstallRoute(id, rt)
		t.add("fabric.install_ns", time.Since(start))
	}
	for i := 0; i < probeOps; i++ {
		start := time.Now()
		o.Propose(rng)
		t.add("core.propose_us", time.Since(start))
		start = time.Now()
		o.Reject()
		t.add("core.reject_us", time.Since(start))
	}
	if h := exper.LayoutHash(o); h != hash0 {
		return fmt.Errorf("probe changed the layout: hash %s, was %s", h, hash0)
	}
	if w := o.WCD(); w != wcd0 {
		return fmt.Errorf("probe changed the worst-case delay: %g ps, was %g ps", w, wcd0)
	}
	if err := o.Check(); err != nil {
		return fmt.Errorf("after probe: %w", err)
	}
	return nil
}

// probeRouteAll times the constructive full-route phase core.New runs on
// the flow's initial placement: global routing, then each detailed-routing
// backend on a copy of the globally routed fabric.
func probeRouteAll(f *flow, t timings) {
	p, cost, seed := f.hot.P, droute.DefaultCost(), f.d.seed
	backends := []struct {
		name  string
		route func(*fabric.Fabric, []fabric.NetRoute)
	}{
		{"droute.routeall_ordered_ms", func(fb *fabric.Fabric, rts []fabric.NetRoute) {
			droute.RouteAllDetailed(fb, rts, cost, 1, rand.New(rand.NewSource(seed)))
		}},
		{"droute.routeall_negotiated_ms", func(fb *fabric.Fabric, rts []fabric.NetRoute) {
			droute.RouteAllNegotiated(fb, rts, cost, droute.NegotiateConfig{Seed: seed})
		}},
		{"droute.routeall_lagrange_ms", func(fb *fabric.Fabric, rts []fabric.NetRoute) {
			droute.RouteAllLagrange(fb, rts, cost, droute.LagrangeConfig{Seed: seed})
		}},
	}
	for rep := 0; rep < routeAllReps; rep++ {
		fb := fabric.New(p.A)
		rts := make([]fabric.NetRoute, p.NL.NumNets())
		start := time.Now()
		groute.RouteAll(fb, p, rts)
		t.add("groute.routeall_ms", time.Since(start))
		for _, b := range backends {
			fb2 := fb.Clone()
			rts2 := make([]fabric.NetRoute, len(rts))
			for i := range rts {
				rts2[i] = rts[i].Clone()
			}
			start = time.Now()
			b.route(fb2, rts2)
			t.add(b.name, time.Since(start))
		}
	}
}

// probeIO times layio.Write of the flow's layout and, on a fresh store,
// store.Journal of its completion record and store.PutBlob of the layout.
func probeIO(r *run, f *flow, t timings) error {
	var buf bytes.Buffer
	for i := 0; i < ioReps; i++ {
		buf.Reset()
		start := time.Now()
		err := layio.Write(&buf, f.o.P, f.o.Rts)
		t.add("layio.write_us", time.Since(start))
		if err != nil {
			return err
		}
	}
	layout := buf.Bytes()
	record, err := json.Marshal(server.JobStats{FullyRouted: f.res.FullyRouted, Unrouted: f.res.D,
		WCDPs: f.res.WCD, FinalCost: f.res.FinalCost, Temps: f.res.Anneal.Temps,
		Moves: f.res.Anneal.TotalMoves, WallMS: float64(f.run) / float64(time.Millisecond)})
	if err != nil {
		return err
	}
	dir, err := scratchDir("store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "data"), 0)
	if err != nil {
		return err
	}
	defer st.Close()
	for i := 0; i < ioReps; i++ {
		key := fmt.Sprintf("%064x", i+1)
		start := time.Now()
		err := st.Journal(store.Record{Kind: store.KindDone, Job: fmt.Sprintf("j%d", i+1), Key: key, Data: record})
		t.add("store.journal_us", time.Since(start))
		r.attempt(err)
		start = time.Now()
		err = st.PutBlob(key, layout)
		t.add("store.putblob_us", time.Since(start))
		r.attempt(err)
	}
	return nil
}

func durations(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}
