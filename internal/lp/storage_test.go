package lp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// solutionDiff describes the first difference between two solutions,
// "" when they are bit-identical in everything a caller can observe:
// status, objective and values by their bits, the work counters, the
// warm-start outcome and the serialized basis.
func solutionDiff(a, b *Solution) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("solution %v vs %v", a, b)
	}
	if a == nil {
		return ""
	}
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case math.Float64bits(a.Obj) != math.Float64bits(b.Obj):
		return fmt.Sprintf("obj %v vs %v", a.Obj, b.Obj)
	case len(a.X) != len(b.X):
		return fmt.Sprintf("len(X) %d vs %d", len(a.X), len(b.X))
	case a.Iters != b.Iters, a.Degenerate != b.Degenerate, a.Refreshes != b.Refreshes:
		return fmt.Sprintf("iters/degenerate/refreshes %d/%d/%d vs %d/%d/%d",
			a.Iters, a.Degenerate, a.Refreshes, b.Iters, b.Degenerate, b.Refreshes)
	case a.Warm != b.Warm || a.WarmReject != b.WarmReject:
		return fmt.Sprintf("warm %v %q vs %v %q", a.Warm, a.WarmReject, b.Warm, b.WarmReject)
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return fmt.Sprintf("x[%d] %v vs %v", j, a.X[j], b.X[j])
		}
	}
	if (a.Basis == nil) != (b.Basis == nil) {
		return "basis present in one solution only"
	}
	if a.Basis != nil {
		ab, err := a.Basis.MarshalBinary()
		if err != nil {
			return err.Error()
		}
		bb, err := b.Basis.MarshalBinary()
		if err != nil {
			return err.Error()
		}
		if !bytes.Equal(ab, bb) {
			return "basis bytes differ"
		}
	}
	return ""
}

// pinRandom fixes one variable at a value inside its bounds (at a bound
// half of the time), as the rounding dive and branching do; a sparse
// LP's random pins often make it infeasible.
func pinRandom(p *Problem, rng *rand.Rand) {
	for try := 0; try < 20; try++ {
		j := rng.Intn(p.NumVars())
		lb, ub := p.Bounds(j)
		if lb == ub {
			continue
		}
		hi := math.Min(ub, lb+10)
		v := lb
		switch rng.Intn(4) {
		case 0:
			v = hi
		case 1, 2:
			v = lb + rng.Float64()*(hi-lb)
		}
		p.SetBounds(j, v, v)
		return
	}
}

// staleCopy returns b with one nonbasic variable marked basic, which
// the warm path rejects as stale_basis.
func staleCopy(b *Basis) *Basis {
	bad := &Basis{nStruct: b.nStruct, m: b.m,
		basis: append([]int32(nil), b.basis...),
		vstat: append([]int8(nil), b.vstat...)}
	for j, st := range bad.vstat {
		if st != basic {
			bad.vstat[j] = basic
			break
		}
	}
	return bad
}

// TestSolveStorageReuseBitIdentical re-solves CloneBounds copies, which
// keep their solver storage between solves, through a seeded sequence
// of bound pins, iteration limits, warm starts (accepted, stale and of
// the wrong shape), infeasible and unbounded problems and solves
// canceled mid-pivot. Every outcome must be bit-identical to the same
// solve on fresh storage (a new CloneBounds copy has none yet).
func TestSolveStorageReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	other := solveOK(t, randomProblem(rng)).Basis // a basis of another shape
	seen := map[string]int{}
	solves := 0
	for trial := 0; solves < 200; trial++ {
		var p *Problem
		switch trial % 5 {
		case 0, 1:
			p = sparseProblem(rng) // m 10..49
		case 2:
			p = slowProblem(rng, 40+rng.Intn(60)) // dense rows, hundreds of pivots
		case 3:
			p = sparseProblem(rng)
			p.AddVar(-1, 0, Inf) // in no row: unbounded until pinned
		default:
			p = randomProblem(rng) // m 2..9
			p.MustAddRow(GE, 1, []int{0}, []float64{1})
			p.MustAddRow(LE, 0.5, []int{0}, []float64{1}) // infeasible
		}
		clone := p.CloneBounds()
		var warm *Basis
		for step := 0; step < 6; step++ {
			var opt Options
			switch rng.Intn(6) {
			case 0:
				opt.MaxIter = 1 + rng.Intn(30)
			case 1, 2:
				opt.WarmStart = warm
			case 3:
				opt.WarmStart = other
			case 4:
				if warm != nil {
					opt.WarmStart = staleCopy(warm)
				}
			}
			// Solve polls once before it starts; a fuse of 1 cancels at
			// the first check of the pivot loop, a fuse of 2 at the next
			// one, 128 iterations in.
			fuse := -1
			if rng.Intn(5) == 0 {
				fuse = 1 + rng.Intn(2)
			}
			ctxFor := func() context.Context {
				if fuse < 0 {
					return context.Background()
				}
				return &countingCtx{Context: context.Background(), fuse: fuse}
			}
			got, gerr := Solve(ctxFor(), clone, opt)
			want, werr := Solve(ctxFor(), clone.CloneBounds(), opt)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("trial %d step %d: error %v vs fresh %v", trial, step, gerr, werr)
			}
			if d := solutionDiff(got, want); d != "" {
				t.Fatalf("trial %d step %d (m=%d, %+v): reused storage differs from fresh: %s",
					trial, step, clone.NumRows(), opt, d)
			}
			switch {
			case gerr != nil && fuse == 2:
				seen["canceled mid-solve"]++
			case gerr != nil:
				seen["canceled"]++
			case got.Warm:
				seen["warm"]++
			case got.WarmReject != "":
				seen[got.WarmReject]++
				seen[got.Status.String()]++
			default:
				seen[got.Status.String()]++
			}
			if got != nil && got.Basis != nil {
				warm = got.Basis
			}
			pinRandom(clone, rng)
			solves++
		}
	}
	for _, k := range []string{"optimal", "infeasible", "unbounded", "iteration-limit", "canceled", "canceled mid-solve",
		"warm", rejectStaleBasis, rejectDimMismatch} {
		if seen[k] == 0 {
			t.Errorf("no %s outcome among %d solves: %v", k, solves, seen)
		}
	}

	// Four goroutines re-solve their own pinned clones of one problem
	// and share a fifth clone, whose storage they take turns holding;
	// the one that finds it taken solves on new storage.
	base := sparseProblem(rand.New(rand.NewSource(21)))
	shared := base.CloneBounds()
	wantShared, err := Solve(context.Background(), base.CloneBounds(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			own := base.CloneBounds()
			for i := 0; i < 12; i++ {
				got, err := Solve(context.Background(), own, Options{})
				want, werr := Solve(context.Background(), own.CloneBounds(), Options{})
				if err != nil || werr != nil {
					t.Errorf("goroutine %d: %v / %v", g, err, werr)
					return
				}
				if d := solutionDiff(got, want); d != "" {
					t.Errorf("goroutine %d solve %d: own clone differs from fresh: %s", g, i, d)
					return
				}
				got, err = Solve(context.Background(), shared, Options{})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if d := solutionDiff(got, wantShared); d != "" {
					t.Errorf("goroutine %d solve %d: shared clone differs from fresh: %s", g, i, d)
					return
				}
				pinRandom(own, rng)
			}
		}(g)
	}
	wg.Wait()
}

// gateProblem builds a sparse LP with m rows and 2m columns, feasible
// around a random point, and a CloneBounds copy with about 80 % of its
// columns pinned at that point, as a late rounding-dive round has them.
func gateProblem(m int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 2 * m
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddVar(rng.NormFloat64(), -2, 3)
		x0[j] = -2 + 5*rng.Float64()
	}
	for i := 0; i < m; i++ {
		idx := []int{i, m + i, rng.Intn(n), rng.Intn(n)}
		if idx[2] == idx[0] || idx[2] == idx[1] {
			idx = idx[:2]
		} else if idx[3] == idx[0] || idx[3] == idx[1] || idx[3] == idx[2] {
			idx = idx[:3]
		}
		val := make([]float64, len(idx))
		v := 0.0
		for k, j := range idx {
			val[k] = float64(1 + rng.Intn(3))
			v += val[k] * x0[j]
		}
		if i%2 == 0 {
			p.MustAddRow(LE, v+rng.Float64(), idx, val)
		} else {
			p.MustAddRow(GE, v-rng.Float64(), idx, val)
		}
	}
	q := p.CloneBounds()
	for j := 0; j < n; j++ {
		if rng.Float64() < 0.8 {
			q.SetBounds(j, x0[j], x0[j])
		}
	}
	return q
}

// TestCloneResolveAllocation is the allocation gate of storage reuse:
// once a CloneBounds copy of an m = 300 LP has solved once, each
// re-solve allocates under 5 % of the 8·m² bytes a dense basis inverse
// would take.
func TestCloneResolveAllocation(t *testing.T) {
	const m, solves = 300, 20
	q := gateProblem(m, 1)
	first, err := Solve(context.Background(), q, Options{})
	if err != nil || first.Status != Optimal || first.Iters == 0 {
		t.Fatalf("first solve: %v %+v", err, first)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < solves; i++ {
		if _, err := Solve(context.Background(), q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSolve := float64(after.TotalAlloc-before.TotalAlloc) / solves
	if limit := 0.05 * 8 * m * m; perSolve >= limit {
		t.Fatalf("re-solve allocates %.0f bytes, want under %.0f (5%% of 8·m²)", perSolve, limit)
	}
	t.Logf("re-solve of m=%d (%d iterations) allocates %.0f bytes", m, first.Iters, perSolve)
}

// BenchmarkCloneResolve re-solves the allocation gate's pinned clone.
func BenchmarkCloneResolve(b *testing.B) {
	q := gateProblem(300, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// warmGateChild returns a CloneBounds copy of gateProblem(300, 1) with
// one basic column's upper bound halved toward its lower bound, and the
// optimal basis of the untightened problem: a warm re-solve as one
// rounding-dive step makes it, which the dual simplex repairs.
func warmGateChild(tb testing.TB) (*Problem, *Basis) {
	tb.Helper()
	q := gateProblem(300, 1)
	root, err := Solve(context.Background(), q, Options{})
	if err != nil || root.Status != Optimal {
		tb.Fatalf("root solve: %v %+v", err, root)
	}
	for j, v := range root.X {
		lb, ub := q.Bounds(j)
		if v-lb < 0.1 || ub-v < 0.1 {
			continue
		}
		child := q.CloneBounds()
		child.SetBounds(j, lb, lb+(v-lb)/2)
		sol, err := Solve(context.Background(), child, Options{WarmStart: root.Basis})
		if err == nil && sol.Warm && sol.Status == Optimal && sol.Iters > 0 {
			return child, root.Basis
		}
	}
	tb.Fatal("no bound tightening of the gate LP re-solves warm")
	return nil, nil
}

// TestWarmResolveAllocation is the allocation gate of the warm path:
// once a tightened CloneBounds copy of an m = 300 LP has re-solved warm,
// each further warm re-solve, factorization included, allocates under
// 2 % of the 8·m² bytes a dense basis inverse would take.
func TestWarmResolveAllocation(t *testing.T) {
	const m, solves = 300, 20
	child, basis := warmGateChild(t)
	opt := Options{WarmStart: basis}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < solves; i++ {
		sol, err := Solve(context.Background(), child, opt)
		if err != nil || !sol.Warm {
			t.Fatalf("warm re-solve %d: %v %+v", i, err, sol)
		}
	}
	runtime.ReadMemStats(&after)
	perSolve := float64(after.TotalAlloc-before.TotalAlloc) / solves
	if limit := 0.02 * 8 * m * m; perSolve >= limit {
		t.Fatalf("warm re-solve allocates %.0f bytes, want under %.0f (2%% of 8·m²)", perSolve, limit)
	}
	t.Logf("warm re-solve of m=%d allocates %.0f bytes", m, perSolve)
}

// BenchmarkWarmResolve re-solves the warm allocation gate's tightened
// clone from the untightened optimum's basis.
func BenchmarkWarmResolve(b *testing.B) {
	child, basis := warmGateChild(b)
	opt := Options{WarmStart: basis}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), child, opt); err != nil {
			b.Fatal(err)
		}
	}
}
