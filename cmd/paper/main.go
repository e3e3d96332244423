// Command paper regenerates every table and figure of the paper's evaluation
// section (Nag & Rutenbar, DAC 1994, §4).
//
// Usage:
//
//	paper -all                  # everything at paper effort
//	paper -table1 -fast         # one artifact at reduced effort
//	paper -figure6 -csv fig6.csv
//
// Absolute numbers differ from 1994 (synthetic benchmark stand-ins, modeled
// RC constants, modern hardware); the shapes reproduced are the ones the
// paper claims: 16-28% timing improvement, 20-33% fewer tracks, 3-4x
// runtime cost, and the Figure-6 phase structure.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/droute"
	"repro/internal/exper"
	"repro/internal/metrics"
	"repro/internal/report"
)

func main() {
	var (
		all         = flag.Bool("all", false, "regenerate every table and figure")
		table1      = flag.Bool("table1", false, "Table 1: timing improvement")
		table2      = flag.Bool("table2", false, "Table 2: wirability improvement")
		figure6     = flag.Bool("figure6", false, "Figure 6: annealing dynamics")
		figure7     = flag.Bool("figure7", false, "Figure 7: 529-cell design")
		runtimeFlag = flag.Bool("runtime", false, "runtime-ratio observation")
		segsweep    = flag.Bool("segsweep", false, "segmentation-tradeoff study (extension)")
		fast        = flag.Bool("fast", false, "reduced effort (quick smoke run)")
		csvPath     = flag.String("csv", "", "write Figure 6 series to this CSV file (default stdout)")
		seed        = flag.Int64("seed", 1, "random seed")
		design      = flag.String("design", "s1", "design for -figure6 and -runtime")
		chains      = flag.Int("chains", 1, "parallel annealing chains for the simultaneous flow")
		critWeight  = flag.Float64("crit-weight", 0, "criticality-weighted net-delay cost term for the simultaneous flow (0 = off)")
		critBias    = flag.Float64("crit-bias", 0, "fraction of moves drawn from near-critical cells (0 = default when -crit-weight is set)")
		critDamping = flag.Float64("crit-damping", 0, "exponential damping of per-net criticalities, below 1 (0 = default when -crit-weight is set)")

		routeBackend = flag.String("route-backend", "", `detailed-router backend for both flows: "ordered" (default), "negotiated" or "lagrange"`)
		routeIters   = flag.Int("route-iters", 0, "iteration cap for the negotiated/lagrange route backends (0 = backend default)")
		stats        = flag.Bool("stats", false, "print optimizer metrics (phase timers, move/router/STA counters) after the run")
		pprofP       = flag.String("pprof", "", "write <prefix>.cpu.pprof and <prefix>.heap.pprof profiles of the run")
	)
	flag.Parse()

	if *all {
		*table1, *table2, *figure6, *figure7, *runtimeFlag, *segsweep = true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*figure6 && !*figure7 && !*runtimeFlag && !*segsweep {
		flag.Usage()
		os.Exit(2)
	}

	e := exper.PaperEffort()
	if *fast {
		e = exper.FastEffort()
	}
	e.Chains = *chains
	e.CritWeight = *critWeight
	e.CritBias = *critBias
	e.CritDamping = *critDamping
	if _, err := droute.ParseBackend(*routeBackend); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(2)
	}
	e.RouteBackend = *routeBackend
	e.RouteIters = *routeIters
	if e.Chains > 1 {
		fmt.Printf("effort: %s (%d parallel chains)\n\n", e.Name, e.Chains)
	} else {
		fmt.Printf("effort: %s\n\n", e.Name)
	}

	var sum *metrics.Summary
	if *stats {
		sum = metrics.NewSummary()
		e.Metrics = sum
	}
	if *pprofP != "" {
		cf, err := os.Create(*pprofP + ".cpu.pprof")
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
		defer func() {
			hf, err := os.Create(*pprofP + ".heap.pprof")
			if err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
				return
			}
			defer hf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(hf); err != nil {
				fmt.Fprintln(os.Stderr, "paper:", err)
			}
		}()
	}

	if err := run(*table1, *table2, *figure6, *figure7, *runtimeFlag, e, *seed, *design, *csvPath); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	if sum != nil {
		fmt.Println()
		if err := sum.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
	}
	if *segsweep {
		rows, err := exper.SegmentationSweep(*design, 24, e, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		if err := report.SegSweep(os.Stdout, rows); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
	}
}

func run(t1, t2, f6, f7, rt bool, e exper.Effort, seed int64, design, csvPath string) error {
	if t1 {
		rows, err := exper.Table1(exper.TableDesigns(), e, seed)
		if err != nil {
			return err
		}
		if err := report.Table1(os.Stdout, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if t2 {
		rows, err := exper.Table2(exper.TableDesigns(), e, seed)
		if err != nil {
			return err
		}
		if err := report.Table2(os.Stdout, rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if f6 {
		samples, err := exper.Figure6(design, e, seed)
		if err != nil {
			return err
		}
		out := os.Stdout
		if csvPath != "" {
			f, err := os.Create(csvPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		fmt.Printf("Figure 6. Annealing dynamics on %s:\n", design)
		if err := report.Figure6CSV(out, samples); err != nil {
			return err
		}
		fmt.Println()
	}
	if f7 {
		res, err := exper.Figure7(e, seed)
		if err != nil {
			return err
		}
		if err := report.Figure7(os.Stdout, res); err != nil {
			return err
		}
		fmt.Println()
	}
	if rt {
		seqDur, simDur, err := exper.RuntimeRatio(design, e, seed)
		if err != nil {
			return err
		}
		ratio := float64(simDur) / float64(seqDur)
		fmt.Printf("Runtime on %s: sequential %v, simultaneous %v (%.1fx; paper reports 3-4x)\n",
			design, seqDur.Round(1e7), simDur.Round(1e7), ratio)
	}
	return nil
}
