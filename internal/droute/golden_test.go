package droute

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/groute"
	"repro/internal/layout"
	"repro/internal/netgen"
)

// routeKey hashes a detailed-routing outcome: every channel assignment of
// every net, in net and channel-index order.
func routeKey(routes []fabric.NetRoute) string {
	h := sha256.New()
	var buf [8]byte
	for i := range routes {
		for _, ca := range routes[i].Chans {
			for _, v := range []int{ca.Ch, ca.Lo, ca.Hi, ca.Track, ca.SegLo, ca.SegHi} {
				binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBackendGolden pins all three full routers to the failure counts and
// layouts they produced before their worker pools were removed. It is the
// only guard on the negotiated and lagrange paths and on the ordered
// router's retry loop: the benchmark suites run only the ordered single
// pass.
func TestBackendGolden(t *testing.T) {
	negotiated := func(f *fabric.Fabric, routes []fabric.NetRoute, _ int64) int {
		return RouteAllNegotiated(f, routes, DefaultCost(), NegotiateConfig{})
	}
	lagrange := func(f *fabric.Fabric, routes []fabric.NetRoute, seed int64) int {
		return RouteAllLagrange(f, routes, DefaultCost(), LagrangeConfig{Seed: seed})
	}
	ordered := func(f *fabric.Fabric, routes []fabric.NetRoute, _ int64) int {
		return RouteAllDetailed(f, routes, DefaultCost(), 6, rand.New(rand.NewSource(9)))
	}
	cases := []struct {
		name   string
		design string // netgen name; the netlist parameters are shared
		tracks int
		seed   int64 // placement seed, and the lagrange tie-break seed
		route  func(f *fabric.Fabric, routes []fabric.NetRoute, seed int64) int
		failed int
		// Detailed-route attempts and failures counted in fabric.Stats.
		attempts, fails int64
		hash            string
	}{
		{"negotiated/10/0", "pw", 10, 0, negotiated, 39, 491, 137,
			"5a553fddba1a2bd11cc343bb105903840625ceb7803856784488896523e55da8"},
		{"lagrange/10/0", "lw", 10, 0, lagrange, 38, 528, 127,
			"519d8f6a555ce8ec69c103036be6fe606ab9cc979daa0df0c3bbf38685400e4b"},
		{"negotiated/10/1", "pw", 10, 1, negotiated, 31, 478, 105,
			"d9ad0e96669af5dc82aa6780e89c4096f5cf0781aa5c8d916bd608006fd99285"},
		{"lagrange/10/1", "lw", 10, 1, lagrange, 31, 509, 99,
			"f1b2ac85b36eca44d47cebcaa19480b3163988fb86899aec89954963f554aa9d"},
		{"negotiated/10/2", "pw", 10, 2, negotiated, 28, 463, 95,
			"c75484ffc61a13ee3352cb4188899fd2c163eb4a56a0a36a618ec9ec33c2f2e9"},
		{"lagrange/10/2", "lw", 10, 2, lagrange, 28, 500, 91,
			"1182e8ab9c9cf49e1f8b87f402df75c16ec4b40393e0dbae47aab995d264fa4d"},
		{"negotiated/14/0", "pw", 14, 0, negotiated, 11, 428, 35,
			"8e9279ab3448ba05998b82aa5c08fa50efbae6d44687aad309c8c27e136c64d1"},
		{"lagrange/14/0", "lw", 14, 0, lagrange, 11, 483, 36,
			"d64a5078c4f8a92d0a2f239bb1d38e01da21c61d84356e430860a059ba331402"},
		{"negotiated/14/1", "pw", 14, 1, negotiated, 4, 379, 15,
			"8ceec39eb41d6e72078a232c33b5f428b13aae1f708fcaf24fba83c8d51b2609"},
		{"lagrange/14/1", "lw", 14, 1, lagrange, 3, 420, 14,
			"841774e749e7b628b1d22f5bbf4b23b1bba7c75baf01c96edc016a622099be4c"},
		{"negotiated/14/2", "pw", 14, 2, negotiated, 2, 350, 6,
			"0bbc8b8c5948a037b314c6fe81888d030a8faf7ab7d4795ebcb4e07717fc9c58"},
		{"lagrange/14/2", "lw", 14, 2, lagrange, 2, 399, 8,
			"113912107e52a1077149f52caa615fdc6a7990c7442ede1f88b53718fa0810d6"},
		{"ordered/8/1", "dw", 8, 1, ordered, 54, 300, 114,
			"baa96227c4ff2f6c5539603f060e833514b249ffa8be4b82f6c2e8b6de5b29f8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nl, err := netgen.Generate(netgen.Params{Name: tc.design, Inputs: 5, Outputs: 4, Seq: 2, Comb: 45, Seed: 87})
			if err != nil {
				t.Fatal(err)
			}
			a := arch.MustNew(arch.Default(6, 16, tc.tracks))
			pl, err := layout.NewRandom(a, nl, rand.New(rand.NewSource(tc.seed)))
			if err != nil {
				t.Fatal(err)
			}
			f := fabric.New(a)
			routes := make([]fabric.NetRoute, nl.NumNets())
			if gf := groute.RouteAll(f, pl, routes); len(gf) > 0 {
				t.Fatalf("global routing failed on %d nets", len(gf))
			}
			before := f.Stats
			failed := tc.route(f, routes, tc.seed)
			if err := f.CheckConsistent(routes); err != nil {
				t.Fatal(err)
			}
			if got := routeKey(routes); failed != tc.failed || got != tc.hash {
				t.Errorf("failed %d, layout %s; want %d, %s", failed, got, tc.failed, tc.hash)
			}
			st := f.Stats.Sub(before)
			if st.DRouteAttempts != tc.attempts || st.DRouteFails != tc.fails {
				t.Errorf("stats %d attempts / %d fails; want %d / %d",
					st.DRouteAttempts, st.DRouteFails, tc.attempts, tc.fails)
			}
		})
	}
}
