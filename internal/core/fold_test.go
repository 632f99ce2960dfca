package core

import (
	"context"
	"math/rand"
	"testing"

	"agingfp/internal/flight"
	"agingfp/internal/lp"
	"agingfp/internal/obs"
)

// assignmentLP is an n×n assignment LP with random costs: one row per
// op and one per slot.
func assignmentLP(n int, seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed))
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
	return p
}

// TestProfileArmedViaRecorder: a recorder armed with EnableKernel turns
// the kernel profiler on for the run's LP solves without the caller
// touching lp.Options, and each profiled solve is merged into the
// recorder's kernel aggregate; an unarmed recorder leaves the solve
// unprofiled and the journal without a kernel section.
func TestProfileArmedViaRecorder(t *testing.T) {
	ctx := context.Background()
	rec := flight.NewRecorder(16)
	rec.EnableKernel(4)
	opts := DefaultOptions()
	opts.Flight = rec
	sol, err := newFold(opts).run(&Stats{}).solve(ctx, assignmentLP(8, 5), nil)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if sol.Profile == nil {
		t.Fatal("armed recorder did not enable profiling")
	}
	if sol.Profile.SampleRate != 4 {
		t.Fatalf("SampleRate = %d, want the recorder's 4", sol.Profile.SampleRate)
	}
	k := rec.KernelSnapshot()
	if k == nil || k.Solves != 1 || k.Iters != int64(sol.Iters) {
		t.Fatalf("kernel aggregate = %+v, want 1 solve with %d iters", k, sol.Iters)
	}

	cold := flight.NewRecorder(16)
	opts.Flight = cold
	sol2, err := newFold(opts).run(&Stats{}).solve(ctx, assignmentLP(8, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Profile != nil {
		t.Fatal("unarmed recorder enabled profiling")
	}
	if cold.KernelSnapshot() != nil || cold.Snapshot().Kernel != nil {
		t.Fatal("unarmed recorder accumulated a kernel aggregate")
	}
}

// TestFoldZeroAllocs keeps the fold free when no tracer, recorder or
// reporter is attached: an LP solve (warm hit, warm reject, cold), the
// other decision calls, and the spans they open and close move only the
// run's Stats.
func TestFoldZeroAllocs(t *testing.T) {
	var st Stats
	f := newFold(DefaultOptions()).run(&st)
	hit := &lp.Solution{Iters: 7, Degenerate: 2, Refreshes: 1, Warm: true}
	miss := &lp.Solution{Iters: 9, Degenerate: 1, Refreshes: 3, WarmReject: "stale_basis"}
	allocs := testing.AllocsPerRun(100, func() {
		f.open(obs.Span{}, "core.remap", obs.Int("ops", 3))
		f.lp(hit, true)
		f.lp(miss, true)
		f.lp(miss, false)
		f.phase("probe", 1.5)
		f.batch(0, 2)
		f.dive(0, 4)
		f.note("core.probe.round", obs.Int("round", 0))
		f.event(flight.Event{Kind: flight.KindDive, Status: "integral", N: 4})
		f.event(flight.Event{Kind: flight.KindBatch, Status: "solved", N: 4, M: 9})
		f.event(flight.Event{Kind: flight.KindProbe, ST: 1.5, Status: "infeasible"})
		f.backjump()
		f.close(nil, obs.Bool("improved", false))
	})
	if allocs != 0 {
		t.Fatalf("fold allocates %.1f per run with no sinks, want 0", allocs)
	}
	if st.LPSolves == 0 || st.WarmStarts != st.WarmStartRejects || st.OuterIterations == 0 {
		t.Fatalf("Stats not folded: %+v", st)
	}
	if f.depth != 0 {
		t.Fatalf("%d spans left open", f.depth)
	}
}
