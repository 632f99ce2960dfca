// Package agingfp_test holds the benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation (run them with
// `go test -bench=. -benchmem`), plus micro-benchmarks for the hot
// substrates. The Table-I benchmarks here use the small fabric tiers so a
// full -bench pass stays laptop-sized; `cmd/experiments` regenerates the
// full tables.
package agingfp_test

import (
	"context"
	"math/rand"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/core"
	"agingfp/internal/dfg"
	"agingfp/internal/hls"
	"agingfp/internal/lp"
	"agingfp/internal/nbti"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// benchSpec fetches a Table-I spec or fails the benchmark.
func benchSpec(b *testing.B, name string) bench.Spec {
	b.Helper()
	s, ok := bench.SpecByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	return s
}

// --- E1: Table I -----------------------------------------------------

// BenchmarkTableIRow4x4 regenerates the first Table-I row (C4, 4x4
// fabric: B1/B10/B19 across the three usage bands), Freeze and Rotate.
func BenchmarkTableIRow4x4(b *testing.B) {
	cfg := bench.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"B1", "B10", "B19"} {
			r, err := bench.Run(context.Background(), benchSpec(b, name), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if r.RotateCPD > r.OrigCPD+1e-9 {
				b.Fatalf("%s: CPD regressed", name)
			}
		}
	}
}

// BenchmarkTableIRowC8 regenerates the C8/4x4 row (B4/B13/B22).
func BenchmarkTableIRowC8(b *testing.B) {
	cfg := bench.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"B4", "B13", "B22"} {
			if _, err := bench.Run(context.Background(), benchSpec(b, name), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFreezeVsRotate isolates the E6 ablation on one benchmark with
// many contexts (where rotation has room to matter).
func BenchmarkFreezeVsRotate(b *testing.B) {
	spec := benchSpec(b, "B7")
	d, err := bench.Synthesize(spec)
	if err != nil {
		b.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, ro, err := core.RemapBoth(context.Background(), d, m0, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if ro.NewMaxStress > fr.NewMaxStress+1e-9 {
			b.Fatal("rotate worse than freeze")
		}
	}
}

// --- E2: Fig. 5 -------------------------------------------------------

// BenchmarkFig5Series regenerates one Fig. 5 group (C4F4) and formats the
// series.
func BenchmarkFig5Series(b *testing.B) {
	cfg := bench.DefaultConfig()
	specs := []bench.Spec{benchSpec(b, "B1"), benchSpec(b, "B10"), benchSpec(b, "B19")}
	for i := 0; i < b.N; i++ {
		rs, err := bench.RunSuite(context.Background(), specs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if s := bench.FormatFig5(rs); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- E3: Fig. 2(b) ----------------------------------------------------

// BenchmarkFig2b regenerates the Vth-shift trajectory comparison.
func BenchmarkFig2b(b *testing.B) {
	spec := benchSpec(b, "B13")
	cfg := bench.DefaultConfig()
	for i := 0; i < b.N; i++ {
		f, err := bench.RunFig2b(context.Background(), spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if f.RemappedMTTF <= f.OrigMTTF {
			b.Fatal("re-mapping did not extend MTTF")
		}
	}
}

// --- E4: scaling ------------------------------------------------------

// BenchmarkScalingTwoStep measures the production two-step solve on a
// fixed mid-size instance.
func BenchmarkScalingTwoStep(b *testing.B) {
	pts := []int{48}
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunScaling(context.Background(), pts, 800, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: greedy ablation ----------------------------------------------

// BenchmarkGreedyVsMILP runs the LPT-vs-MILP comparison.
func BenchmarkGreedyVsMILP(b *testing.B) {
	spec := benchSpec(b, "B10")
	cfg := bench.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := bench.RunGreedy(context.Background(), spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if g.MILPCPD > g.OrigCPD+1e-9 {
			b.Fatal("MILP broke timing")
		}
	}
}

// --- substrate micro-benchmarks ----------------------------------------

// BenchmarkSimplexAssignment solves a 24x24 assignment LP.
func BenchmarkSimplexAssignment(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 24
	p := lp.NewProblem()
	vars := make([][]int, n)
	for i := range vars {
		vars[i] = make([]int, n)
		for j := range vars[i] {
			vars[i][j] = p.AddVar(rng.Float64(), 0, 1)
		}
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	for i := 0; i < n; i++ {
		p.MustAddRow(lp.EQ, 1, vars[i], ones)
		col := make([]int, n)
		for k := 0; k < n; k++ {
			col[k] = vars[k][i]
		}
		p.MustAddRow(lp.EQ, 1, col, ones)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(context.Background(), p, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("solve: %v %v", err, sol.Status)
		}
	}
}

// BenchmarkWarmVsColdSimplex replays the Step-1 probe workload — the
// full-design re-binding LP solved at a descending sequence of stress
// budgets (only the budget-row RHS changes between probes) — once from
// scratch at every budget and once reusing the previous probe's basis.
// The warm arm must reach the same objective at every budget; the
// speedup between the two sub-benchmarks is the payoff of basis reuse.
func BenchmarkWarmVsColdSimplex(b *testing.B) {
	spec := benchSpec(b, "B10")
	d, err := bench.Synthesize(spec)
	if err != nil {
		b.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s0 := arch.ComputeStress(d, m0)
	base := s0.Max()
	var probes []*lp.Problem
	for k := 0; k < 6; k++ {
		target := base * (1 - 0.01*float64(k))
		rng := rand.New(rand.NewSource(11)) // same seed: identical candidate sets, so identical LP structure
		probes = append(probes, core.FullProblemLP(d, m0, target, rng))
	}
	want := make([]float64, len(probes))
	for k, p := range probes {
		sol, err := lp.Solve(context.Background(), p, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("probe %d cold solve: %v %v", k, err, sol.Status)
		}
		want[k] = sol.Obj
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, p := range probes {
				sol, err := lp.Solve(context.Background(), p, lp.Options{})
				if err != nil || sol.Status != lp.Optimal {
					b.Fatalf("probe %d: %v %v", k, err, sol.Status)
				}
			}
		}
	})
	// The profiled arm measures the kernel profiler's overhead against
	// "cold" directly: same probes, profiling armed. The gap between the
	// two is the cost of the sampled phase clocks (<2% is the budget; see
	// lp.TestKernelProfilerOverhead for the hard gate).
	b.Run("cold-profiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, p := range probes {
				sol, err := lp.Solve(context.Background(), p, lp.Options{Profile: true})
				if err != nil || sol.Status != lp.Optimal {
					b.Fatalf("probe %d: %v %v", k, err, sol.Status)
				}
				if sol.Profile == nil {
					b.Fatal("profiled solve returned no profile")
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var basis *lp.Basis
			for k, p := range probes {
				sol, err := lp.Solve(context.Background(), p, lp.Options{WarmStart: basis})
				if err != nil || sol.Status != lp.Optimal {
					b.Fatalf("probe %d: %v %v", k, err, sol.Status)
				}
				if diff := sol.Obj - want[k]; diff > 1e-6 || diff < -1e-6 {
					b.Fatalf("probe %d: warm objective %g != cold %g", k, sol.Obj, want[k])
				}
				basis = sol.Basis
			}
		}
	})
}

// BenchmarkPathEnumeration measures near-critical path extraction.
func BenchmarkPathEnumeration(b *testing.B) {
	spec := benchSpec(b, "B14")
	d, err := bench.Synthesize(spec)
	if err != nil {
		b.Fatal(err)
	}
	m, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	res := timing.Analyze(d, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := timing.EnumeratePaths(d, m, res, timing.DefaultEnumerateOptions())
		if len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkSTA measures full-design arrival-time analysis.
func BenchmarkSTA(b *testing.B) {
	spec := benchSpec(b, "B17")
	d, err := bench.Synthesize(spec)
	if err != nil {
		b.Fatal(err)
	}
	m, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := timing.Analyze(d, m); res.CPD <= 0 {
			b.Fatal("bad CPD")
		}
	}
}

// BenchmarkThermalSolve measures one 16x16 steady-state solve.
func BenchmarkThermalSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	power := make([][]float64, 16)
	for y := range power {
		power[y] = make([]float64, 16)
		for x := range power[y] {
			power[y][x] = rng.Float64()
		}
	}
	cfg := thermal.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.Solve(power, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacer measures the aging-unaware baseline placement.
func BenchmarkPlacer(b *testing.B) {
	d, err := hls.BuildDesign("fir32", dfg.FIR(32), arch.Fabric{W: 8, H: 8}, hls.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(d, place.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyLevel measures the LPT leveler.
func BenchmarkGreedyLevel(b *testing.B) {
	spec := benchSpec(b, "B17")
	d, err := bench.Synthesize(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.GreedyLevel(d, nil)
		if len(m) != d.NumOps() {
			b.Fatal("bad mapping")
		}
	}
}

// BenchmarkMTTFEvaluation measures the stress->thermal->NBTI pipeline.
func BenchmarkMTTFEvaluation(b *testing.B) {
	spec := benchSpec(b, "B13")
	d, err := bench.Synthesize(spec)
	if err != nil {
		b.Fatal(err)
	}
	m, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	model := nbti.DefaultModel()
	tcfg := thermal.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(d, m, model, tcfg); err != nil {
			b.Fatal(err)
		}
	}
}
