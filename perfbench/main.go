// Command perfbench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget, checks every layout the system produces, and
// prints each metric by name with its unit; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// probes; with -trace 1 they are the per-layer ones, from a separate traced
// run. Workloads, metric definitions and the per-layer prediction table are
// in README.md. Run it from the repository root through run.sh, which builds
// it from source:
//
//	bash perfbench/run.sh --workload sim-timing --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"sim-timing":    simTiming.measure,
	"sim-congested": simCongested.measure,
	"serve-mix":     serveMix,
}

// run is one invocation: its parameters and what it has measured so far.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	attempted int
	failed    int
	values    map[string]float64
	ledger    *ledger
}

// attempt counts one operation and, when err is non-nil, its failure.
func (r *run) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
	}
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds, trace int) error {
	measure, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if seed < 0 || seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seed >= 0, --seconds >= 1 and --trace 0 or 1")
	}
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	if err := validateSpecs(specs); err != nil {
		return err
	}
	led, err := openLedger(filepath.Join(buildDir, "perfbench-ledger.json"), workload, seed)
	if err != nil {
		return err
	}
	r := &run{workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace == 1, values: map[string]float64{}, ledger: led}
	if err := measure(r); err != nil {
		return err
	}
	if err := led.save(); err != nil {
		return err
	}
	return report(r, specs)
}

// report prints every metric of specs as a table and then the JSON result
// line. A metric the workload failed to produce is an error, not a zero.
func report(r *run, specs []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	fmt.Printf("workload %s  seed %d  trace %t  attempted %d  failed %d  determinism mismatches %d\n",
		r.workload, r.seed, r.trace, r.attempted, r.failed, r.ledger.mismatches)
	for _, m := range specs {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s produced no value for %s", r.workload, m.name)
		}
		fmt.Printf("  %-32s %16.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	out.Correct = r.failed == 0 && r.ledger.mismatches == 0 && r.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
