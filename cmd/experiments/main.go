// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite:
//
//	experiments -table1          Table I (MTTF increase, Freeze & Rotate)
//	experiments -fig5            Fig. 5 (MTTF increase by configuration)
//	experiments -fig2b           Fig. 2(b) (Vth shift trajectories)
//	experiments -scaling         E4: monolithic ILP vs two-step MILP
//	experiments -greedy          E7: delay-unaware LPT vs delay-aware MILP
//	experiments -all             everything above
//
// -scale controls the linear shrink applied to the 16x16 rows (default
// 0.5, i.e. they run as 8x8 with proportionally fewer ops, preserving
// context counts and utilization bands). -scale 1 runs the full paper
// sizes; budget hours on one core.
//
// This command reports quality (MTTF gain, CPD), not speed: the
// benchmark in benchmark/ (bash benchmark/run.sh) measures the solver's
// time and effort.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"agingfp/internal/bench"
	"agingfp/internal/buildinfo"
)

func main() {
	var (
		table1  = flag.Bool("table1", false, "regenerate Table I")
		fig5    = flag.Bool("fig5", false, "regenerate Fig. 5")
		fig2b   = flag.Bool("fig2b", false, "regenerate Fig. 2(b)")
		scaling = flag.Bool("scaling", false, "run the E4 ILP-scaling comparison")
		greedy  = flag.Bool("greedy", false, "run the E7 greedy-vs-MILP comparison")
		budget  = flag.Bool("budget", false, "run the E8 delay-budget ablation (CPD vs clock)")
		wear    = flag.Bool("wear", false, "run the E9 wear-rotation schedule experiment")
		all     = flag.Bool("all", false, "run every experiment")
		scale   = flag.Float64("scale", 0.5, "linear shrink for 16x16 benchmarks (1 = full size)")
		subset  = flag.String("subset", "", "comma-separated benchmark names (e.g. B1,B14); empty = all 27")
		quiet   = flag.Bool("q", false, "suppress per-benchmark progress")
		csvOut  = flag.String("csv", "", "also write Table-I results as CSV to this file")
		par     = flag.Int("parallel", 1, "run this many benchmarks concurrently")
		version = flag.Bool("version", false, "print build identity (VCS revision, Go version) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	if !*table1 && !*fig5 && !*fig2b && !*scaling && !*greedy && !*budget && !*wear && !*all {
		flag.Usage()
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Parallel = *par
	if !*quiet {
		cfg.Progress = func(s string) { fmt.Println(s) }
	}

	specs := bench.TableI
	if *subset != "" {
		specs = nil
		for _, name := range strings.Split(*subset, ",") {
			s, ok := bench.SpecByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
				os.Exit(2)
			}
			specs = append(specs, s)
		}
	}

	var results []*bench.Result
	runSuite := func() {
		if results != nil {
			return
		}
		start := time.Now()
		var err error
		results, err = bench.RunSuite(context.Background(), specs, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "suite: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nsuite completed in %v\n\n", time.Since(start).Round(time.Second))
	}

	if *table1 || *all {
		runSuite()
		fmt.Println("==== Table I — MTTF increase (measured vs paper) ====")
		fmt.Println(bench.FormatTableI(results))
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := bench.WriteCSV(f, results); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Println("wrote", *csvOut)
		}
	}
	if *fig5 || *all {
		runSuite()
		fmt.Println("==== Fig. 5 ====")
		fmt.Println(bench.FormatFig5(results))
	}
	if *fig2b || *all {
		spec, _ := bench.SpecByName("B14")
		f, err := bench.RunFig2b(context.Background(), spec, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig2b: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("==== Fig. 2(b) ====")
		fmt.Println(bench.FormatFig2b(f))
	}
	if *scaling || *all {
		pts, err := bench.RunScaling(context.Background(), []int{24, 48, 72, 96}, 1200, 77)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scaling: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("==== E4 — scaling ====")
		fmt.Println(bench.FormatScaling(pts))
	}
	if *greedy || *all {
		var rows []*bench.GreedyComparison
		for _, name := range []string{"B1", "B10", "B13", "B19"} {
			s, _ := bench.SpecByName(name)
			g, err := bench.RunGreedy(context.Background(), s)
			if err != nil {
				fmt.Fprintf(os.Stderr, "greedy: %v\n", err)
				os.Exit(1)
			}
			rows = append(rows, g)
		}
		fmt.Println("==== E7 — greedy vs MILP ====")
		fmt.Println(bench.FormatGreedy(rows))
	}
	if *budget || *all {
		var rows []*bench.BudgetAblation
		for _, name := range []string{"B1", "B10", "B13", "B19"} {
			s, _ := bench.SpecByName(name)
			ba, err := bench.RunBudgetAblation(context.Background(), s, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "budget: %v\n", err)
				os.Exit(1)
			}
			rows = append(rows, ba)
		}
		fmt.Println("==== E8 — delay-budget ablation ====")
		fmt.Println(bench.FormatBudgetAblation(rows))
	}
	if *wear || *all {
		var rows []*bench.WearResult
		for _, name := range []string{"B1", "B13"} {
			s, _ := bench.SpecByName(name)
			wr, err := bench.RunWear(context.Background(), s, cfg, 3)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wear: %v\n", err)
				os.Exit(1)
			}
			rows = append(rows, wr)
		}
		fmt.Println("==== E9 — wear-rotation schedules (extension) ====")
		fmt.Println(bench.FormatWear(rows))
	}
}
