package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricSpec is one metric the benchmark reports. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the system waits on or pays for. Every workload
// reports every one of them (see README.md for what each means on the sim
// workloads, which have no request stream). Timings carry the largest
// bound allowed: on a 2-CPU host even a fixed single-thread loop varies by
// about 8% from run to run. Quality is deterministic per seed and varies
// only with the seed's designs.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"critical_path_ps", "ps", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"hit_p50_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
}

// perLayer are the traced run's numbers. Each names the end-to-end metric
// it should move; README.md holds the prediction table.
var perLayer = []metricSpec{
	{"droute.attempts_per_move", "count/move", "lower", 0},
	{"droute.fail_frac", "ratio", "lower", 0},
	{"droute.routenet_ns", "ns", "lower", 0},
	{"droute.picktrack_ns", "ns", "lower", 0},
	{"timing.net_updates_per_move", "count/move", "lower", 0},
	{"timing.cells_relaxed_per_move", "count/move", "lower", 0},
	{"timing.netdelays_ns", "ns", "lower", 0},
	{"timing.propagate_us", "us", "lower", 0},
	{"groute.attempts_per_move", "count/move", "lower", 0},
	{"groute.fail_frac", "ratio", "lower", 0},
	{"groute.route_ns", "ns", "lower", 0},
	{"fabric.ripups_per_move", "count/move", "lower", 0},
	{"fabric.remove_ns", "ns", "lower", 0},
	{"fabric.install_ns", "ns", "lower", 0},
	{"core.moves", "count", "lower", 0},
	{"core.accept_ratio", "ratio", "higher", 0},
	{"core.unrouted_nets", "count", "lower", 0},
	{"core.propose_us", "us", "lower", 0},
	{"core.reject_us", "us", "lower", 0},
	{"core.ns_per_move", "ns", "lower", 0},
	{"anneal.temps", "count", "lower", 0},
	{"groute.routeall_ms", "ms", "lower", 0},
	{"droute.routeall_ordered_ms", "ms", "lower", 0},
	{"droute.routeall_negotiated_ms", "ms", "lower", 0},
	{"droute.routeall_lagrange_ms", "ms", "lower", 0},
	{"route.routeall_frac", "ratio", "lower", 0},
	{"server.queue_wait_ms", "ms", "lower", 0},
	{"server.run_ms", "ms", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"portfolio.group_ms", "ms", "lower", 0},
	{"server.cache_hit_frac", "ratio", "higher", 0},
	{"server.optimizer_runs", "count", "lower", 0},
	{"store.journal_us", "us", "lower", 0},
	{"store.putblob_us", "us", "lower", 0},
	{"layio.write_us", "us", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSpecs rejects a metric table with a malformed or repeated name or
// unit, so a typo fails the run instead of producing an unreadable report.
func validateSpecs(specs []metricSpec) error {
	seen := map[string]bool{}
	for _, m := range specs {
		if !nameRE.MatchString(m.name) {
			return fmt.Errorf("metric name %q must match %s", m.name, nameRE)
		}
		if seen[m.name] {
			return fmt.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			return fmt.Errorf("metric %s: unit %q must match %s", m.name, m.unit, unitRE)
		}
		if m.better != "lower" && m.better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, not %q", m.name, m.better)
		}
	}
	return nil
}

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported: with fewer, the value is set by a handful of outliers.
const minBeyond = 10

// percentile returns the p-th percentile (nearest rank) of xs. Above the
// median it refuses to answer unless at least minBeyond samples lie beyond
// the percentile, so p90 needs 100 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %g out of (0, 100]", p)
	}
	if p > 50 {
		if beyond := float64(n) * (100 - p) / 100; beyond < minBeyond {
			return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d", p, n, beyond, minBeyond)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median is the 50th percentile; it is defined for any non-empty sample.
func median(xs []float64) float64 {
	v, err := percentile(xs, 50)
	if err != nil {
		return math.NaN()
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values, the average the
// repository's timing-quality comparisons use for critical paths.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio divides two counters, reading 0 for an empty denominator.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
