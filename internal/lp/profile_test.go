package lp

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"agingfp/internal/flight"
)

// profAssignment builds an n x n random-cost assignment LP with its rows
// labeled by family (rows "assignment", columns "capacity"), the same
// shape the re-mapper's batch formulation produces.
func profAssignment(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
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
		p.MustAddRow(EQ, 1, vars[i], ones)
		p.SetRowFamily(p.NumRows()-1, flight.FamilyAssignment)
		col := make([]int, n)
		for k := 0; k < n; k++ {
			col[k] = vars[k][i]
		}
		p.MustAddRow(EQ, 1, col, ones)
		p.SetRowFamily(p.NumRows()-1, flight.FamilyCapacity)
	}
	return p
}

// fakeClock returns a deterministic profiler clock: every reading
// advances by a fixed step, so two identical solves read identical
// timestamp sequences.
func fakeClock() func() int64 {
	var now int64
	return func() int64 {
		now += 1000
		return now
	}
}

// TestProfileDeterministicJSON: with an injected clock, the same seed
// must produce a byte-identical kernel-profile JSON on every run — the
// acceptance bar for reproducible profiles.
func TestProfileDeterministicJSON(t *testing.T) {
	run := func() []byte {
		p := profAssignment(12, 7)
		sol, err := Solve(context.Background(), p, Options{
			Profile:      true,
			ProfileRate:  4,
			ProfileClock: fakeClock(),
		})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %v %v", err, sol.Status)
		}
		if sol.Profile == nil {
			t.Fatal("no profile attached")
		}
		out, err := json.Marshal(sol.Profile)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed profiles differ:\n%s\n%s", a, b)
	}
}

// TestProfileStructure checks the profile's internal consistency at
// sample rate 1 (every iteration timed): phases present, full counts,
// high wall-clock coverage, pivots attributed to the labeled families.
func TestProfileStructure(t *testing.T) {
	p := profAssignment(12, 3)
	sol, err := Solve(context.Background(), p, Options{Profile: true, ProfileRate: 1})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	prof := sol.Profile
	if prof == nil {
		t.Fatal("no profile attached")
	}
	if prof.SampleRate != 1 || prof.Solves != 1 {
		t.Fatalf("SampleRate = %d, Solves = %d, want 1 and 1", prof.SampleRate, prof.Solves)
	}
	if prof.Iters != int64(sol.Iters) {
		t.Fatalf("profile iters %d != solution iters %d", prof.Iters, sol.Iters)
	}
	if prof.MaxM != p.NumRows() || prof.MaxN < p.NumVars() {
		t.Fatalf("dims %dx%d, want rows=%d vars>=%d", prof.MaxM, prof.MaxN, p.NumRows(), p.NumVars())
	}
	// BinvBytes counts the rows the solve materialized plus the diagonal
	// vector; an unprofiled solver on the same problem takes the same
	// pivots and so materializes the same rows.
	s := new(solver)
	newSolver(s, p, Options{})
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	if want := int64(8 * prof.MaxM * (s.rows + 1)); prof.BinvBytes != want || s.rows > prof.MaxM {
		t.Fatalf("BinvBytes = %d, want %d (%d of %d rows materialized)", prof.BinvBytes, want, s.rows, prof.MaxM)
	}
	for _, name := range []string{flight.PhaseSetup, flight.PhasePricing, flight.PhaseFtran, flight.PhaseRatio, flight.PhaseUpdate} {
		ph := prof.Phases[name]
		if ph == nil || ph.Count == 0 {
			t.Fatalf("phase %q missing or empty: %+v", name, ph)
		}
		if ph.Sampled != ph.Count {
			t.Fatalf("phase %q: sampled %d != count %d at rate 1", name, ph.Sampled, ph.Count)
		}
	}
	if cov := prof.Coverage(); cov < 0.5 || cov > 1.05 {
		t.Fatalf("coverage = %.3f, want ~[0.5, 1.05] at rate 1", cov)
	}
	var pivots int64
	for fam, n := range prof.FamilyPivots {
		if fam != flight.FamilyAssignment && fam != flight.FamilyCapacity {
			t.Fatalf("unexpected pivot family %q", fam)
		}
		pivots += n
	}
	if pivots == 0 {
		t.Fatal("no pivots attributed to row families")
	}
}

// TestKernelProfilerOverhead is the overhead gate: profiled solves must
// stay within 1.5x of unprofiled wall-clock (the budget is <2%; the
// slack absorbs shared-runner noise — the precise number comes from
// BenchmarkWarmVsColdSimplex's cold vs cold-profiled arms). Unprofiled
// and profiled trials alternate and each side keeps its best, so a load
// spike slows one trial of each side rather than a whole side.
func TestKernelProfilerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	p := profAssignment(20, 11)
	trial := func(opt Options) time.Duration {
		start := time.Now()
		for i := 0; i < 4; i++ {
			sol, err := Solve(context.Background(), p, opt)
			if err != nil || sol.Status != Optimal {
				t.Fatalf("solve: %v %v", err, sol.Status)
			}
		}
		return time.Since(start)
	}
	trial(Options{}) // warm up allocator and caches
	off, on := time.Duration(1<<62-1), time.Duration(1<<62-1)
	for i := 0; i < 10; i++ {
		off = min(off, trial(Options{}))
		on = min(on, trial(Options{Profile: true}))
	}
	if off > 0 && on > off*3/2 {
		t.Fatalf("profiled solves took %v vs %v unprofiled (> 1.5x)", on, off)
	}
}
