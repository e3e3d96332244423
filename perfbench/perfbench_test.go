package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 90); err == nil {
		t.Fatal("p90 of 99 samples: want an error, 9.9 samples lie beyond it")
	}
	xs = append(xs, 100)
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 100 samples: want an error")
	}
	if v := median([]float64{3}); v != 3 {
		t.Fatalf("median of one sample = %v, want 3", v)
	}
	if v := median([]float64{4, 1, 3, 2}); v != 2 {
		t.Fatalf("median of 1..4 = %v, want the lower middle 2", v)
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		if err := validateSpecs(specs); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []string{"", "a b", "-lead", "tab\t", "ünits", "x/y", strings.Repeat("a", 65)} {
		if err := validateSpecs([]metricSpec{{bad, "s", "lower", 0}}); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := validateSpecs([]metricSpec{{"a", "s", "lower", 0}, {"a", "s", "lower", 0}}); err == nil {
		t.Error("repeated name accepted")
	}
	if err := validateSpecs([]metricSpec{{"a", "m s", "lower", 0}}); err == nil {
		t.Error("unit with a space accepted")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// tables and workloads the program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	compare := func(kind string, declared []metric, specs []metricSpec, bounded bool) {
		if len(declared) != len(specs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(declared), len(specs))
			return
		}
		for i, m := range specs {
			d := declared[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || (d.Bound != nil) != bounded ||
				(bounded && *d.Bound != m.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, d, m)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, true)
	compare("per_layer", bj.PerLayer, perLayer, false)
}

func TestDeriveSeedIsNonNegativeAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 104729, 1 << 62} {
		for stream := 0; stream < 3; stream++ {
			for i := 0; i < 50; i++ {
				s := deriveSeed(seed, stream, i)
				if s < 0 || seen[s] {
					t.Fatalf("deriveSeed(%d, %d, %d) = %d: negative or repeated", seed, stream, i, s)
				}
				seen[s] = true
			}
		}
	}
}

// TestProbeLeavesStateIdentical runs the traced probe on both clone states
// of a small design and checks what the probe promises: per-call samples
// for every move-pipeline layer and a probed optimizer that passes its own
// bit-identity and consistency checks.
func TestProbeLeavesStateIdentical(t *testing.T) {
	f, err := design{profile: "tiny", seed: 3, tracks: 38, timing: true}.flow(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.check(); err != nil {
		t.Fatal(err)
	}
	tm := timings{}
	for _, c := range []struct {
		name string
		o    *core.Optimizer
	}{{"hot", f.hot}, {"cold", f.o}} {
		if err := probeMoves(c.o, 5, tm); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	for _, name := range []string{"fabric.remove_ns", "groute.route_ns", "droute.picktrack_ns",
		"droute.routenet_ns", "timing.netdelays_ns", "timing.propagate_us", "fabric.install_ns",
		"core.propose_us", "core.reject_us"} {
		if len(tm[name]) == 0 {
			t.Errorf("probe took no %s samples", name)
		}
	}
}

func TestLedgerFlagsDisagreement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	l, err := openLedger(path, "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	l.check("design0", "a")
	l.check("design0", "a")
	if l.mismatches != 0 {
		t.Fatalf("equal values flagged: %d mismatches", l.mismatches)
	}
	if err := l.save(); err != nil {
		t.Fatal(err)
	}
	again, err := openLedger(path, "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	again.check("design0", "b")
	if again.mismatches != 1 {
		t.Fatalf("a value differing from an earlier run gave %d mismatches, want 1", again.mismatches)
	}
	other, err := openLedger(path, "w", 2)
	if err != nil {
		t.Fatal(err)
	}
	other.check("design0", "b")
	if other.mismatches != 0 {
		t.Fatal("another seed was compared with seed 1")
	}
}

// TestServeEpisode serves a fresh job, its resubmission and a portfolio
// from an in-process service, and checks that every output passes the
// benchmark's checks and every server-layer metric is reported.
func TestServeEpisode(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	l, err := openLedger(filepath.Join(t.TempDir(), "ledger.json"), "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{workload: "test", values: map[string]float64{}, ledger: l}
	d := design{profile: "tiny", seed: 5, tracks: 38, timing: true}
	nl, err := d.netlist()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := freshRequest(d, nl)
	if err != nil {
		t.Fatal(err)
	}
	group, err := portfolioRequest(d, nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := serveEpisode(r, []request{fresh, {kind: reqHit, origin: 0}, group}); err != nil {
		t.Fatal(err)
	}
	if r.attempted != 3 || r.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want 3 and 0", r.attempted, r.failed)
	}
	for _, name := range []string{"server.queue_wait_ms", "server.run_ms", "server.overhead_ms",
		"portfolio.group_ms", "server.cache_hit_frac", "server.optimizer_runs"} {
		if _, ok := r.values[name]; !ok {
			t.Errorf("no %s", name)
		}
	}
	if got := r.values["server.optimizer_runs"]; got != 5 {
		t.Errorf("server.optimizer_runs = %v, want 5 (one fresh job, four portfolio members)", got)
	}
	if entries, err := os.ReadDir(buildDir); err != nil || len(entries) != 0 {
		t.Errorf("service left %v in %s (%v)", entries, buildDir, err)
	}
}
