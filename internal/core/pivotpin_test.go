package core_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/core"
	"agingfp/internal/lp"
	"agingfp/internal/place"
)

// pivotPin is the fingerprint of one simplex solve: effort counters plus
// the exact bits of the objective and of the solution vector.
type pivotPin struct {
	iters, degenerate int
	objBits, xHash    uint64
}

func pinOf(sol *lp.Solution) pivotPin {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range sol.X {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return pivotPin{sol.Iters, sol.Degenerate, math.Float64bits(sol.Obj), h.Sum64()}
}

// fullProblemLP builds BenchmarkWarmVsColdSimplex's probe LP k for a
// Table-I instance: default placement, candidate sets drawn from rand
// seed 11, stress budget base*(1-0.01k).
func fullProblemLP(t *testing.T, name string, k int) *lp.Problem {
	t.Helper()
	spec, ok := bench.SpecByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	d, err := bench.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := arch.ComputeStress(d, m0).Max()
	rng := rand.New(rand.NewSource(11))
	return core.FullProblemLP(d, m0, base*(1-0.01*float64(k)), core.DefaultOptions(), rng)
}

// phase1LP builds a seeded sparse LP that no slack basis fits: rows of
// every sense around random right-hand sides force artificials of both
// signs into phase 1 (21 with +1, 18 with -1), and boxed and upper-only
// columns start at their upper bounds beside columns at zero. It is
// feasible around a random interior point and bounded because only the
// upper-only columns can fall without limit, and their costs make that
// worse.
func phase1LP() *lp.Problem {
	rng := rand.New(rand.NewSource(5))
	const n, m = 90, 60
	p := lp.NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		switch j % 3 {
		case 0: // boxed, starts at the upper bound nearer zero
			p.AddVar(rng.NormFloat64(), -4, 3)
			x0[j] = -4 + 7*rng.Float64()
		case 1: // upper-only
			p.AddVar(-1-rng.Float64(), math.Inf(-1), 2)
			x0[j] = 2 - 3*rng.Float64()
		default: // boxed, starts at zero
			p.AddVar(rng.NormFloat64(), 0, 5)
			x0[j] = 5 * rng.Float64()
		}
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		v := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.08 {
				c := rng.NormFloat64()
				idx = append(idx, j)
				val = append(val, c)
				v += c * x0[j]
			}
		}
		if len(idx) == 0 {
			j := rng.Intn(n)
			idx, val, v = []int{j}, []float64{1}, x0[j]
		}
		switch i % 3 {
		case 0:
			p.MustAddRow(lp.EQ, v, idx, val)
		case 1:
			p.MustAddRow(lp.GE, v-rng.Float64(), idx, val)
		default:
			p.MustAddRow(lp.LE, v+rng.Float64(), idx, val)
		}
	}
	return p
}

// TestSimplexPivotPathPinned pins the simplex kernel's pivot path on
// full-design re-binding LPs from BenchmarkWarmVsColdSimplex's
// generator, a seeded LP whose phase 1 carries artificials of both
// signs, and two warm re-solves: one after a branch-style bound
// tightening and one after tightening every stress-budget right-hand
// side, which the dual simplex repairs over several pivots. A kernel
// rewrite that claims to keep the arithmetic unchanged must reproduce
// every iteration count, degenerate-pivot count, objective bit pattern
// and solution hash exactly; any drift in pivot choice or rounding shows
// here.
func TestSimplexPivotPathPinned(t *testing.T) {
	cases := []struct {
		bench string
		k     int
		want  pivotPin
	}{
		{"B10", 0, pivotPin{174, 114, 0x0, 0x62739c8ec6f314eb}},
		{"B1", 0, pivotPin{82, 48, 0x0, 0xa8f3b3b0edd56299}},
		{"B4", 2, pivotPin{247, 153, 0xbc891aaab683b07a, 0x6962bdd60af03b34}},
		{"B5", 4, pivotPin{1892, 578, 0x3f8205bc01a3678e, 0x77fbf2491103f086}},
		{"B25", 1, pivotPin{2102, 554, 0x3fa47ae147ae136f, 0x41281d33564c46c}},
		{"B13", 5, pivotPin{414, 204, 0x3fa9999999999972, 0x76a450b56cfae8b}},
		{"B19", 8, pivotPin{442, 126, 0xbc7d57dce630d78c, 0x4b5c6c99e47a4b91}},
	}
	wantWarm := pivotPin{10, 0, 0x3faa36e2eb1c432c, 0xa2b564724aad7043}
	wantPhase1 := pivotPin{142, 0, 0xc06203ab13792907, 0x3eb4fe06d53a845b}
	wantWarmRHS := pivotPin{12, 0, 0x3fa999999999999a, 0x85af696e63fdf483}

	for _, c := range cases {
		p := fullProblemLP(t, c.bench, c.k)
		sol, err := lp.Solve(context.Background(), p, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s k=%d: %v %v", c.bench, c.k, err, sol.Status)
		}
		if got := pinOf(sol); got != c.want {
			t.Errorf("%s k=%d (m=%d, n=%d): got %#v, want %#v", c.bench, c.k, p.NumRows(), p.NumVars(), got, c.want)
		}
	}

	p1 := phase1LP()
	sol1, err := lp.Solve(context.Background(), p1, lp.Options{})
	if err != nil || sol1.Status != lp.Optimal {
		t.Fatalf("phase-1 LP: %v %v", err, sol1.Status)
	}
	if got := pinOf(sol1); got != wantPhase1 {
		t.Errorf("phase-1 LP: got %#v, want %#v", got, wantPhase1)
	}

	// Warm re-solve: fix the first fractional variable of the B13 k=5
	// optimum to zero and reoptimize from its basis.
	p := fullProblemLP(t, "B13", 5)
	sol, err := lp.Solve(context.Background(), p, lp.Options{})
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("B13 k=5: %v %v", err, sol.Status)
	}
	q := p.CloneBounds()
	fixed := -1
	for j, v := range sol.X {
		if v > 1e-6 && v < 1-1e-6 {
			lb, _ := q.Bounds(j)
			q.SetBounds(j, lb, 0)
			fixed = j
			break
		}
	}
	if fixed < 0 {
		t.Fatal("B13 k=5 optimum has no fractional variable to tighten")
	}
	warm, err := lp.Solve(context.Background(), q, lp.Options{WarmStart: sol.Basis})
	if err != nil || warm.Status != lp.Optimal || !warm.Warm {
		t.Fatalf("warm re-solve (x%d <= 0): %v %v warm=%v", fixed, err, warm.Status, warm.Warm)
	}
	if got := pinOf(warm); got != wantWarm {
		t.Errorf("warm re-solve (x%d <= 0): got %#v, want %#v", fixed, got, wantWarm)
	}

	// Warm re-solve after the stress budget drops from base*0.95 to
	// base*0.60: the same rows and columns, every stress-budget
	// right-hand side tightened.
	tight := fullProblemLP(t, "B13", 40)
	warmRHS, err := lp.Solve(context.Background(), tight, lp.Options{WarmStart: sol.Basis})
	if err != nil || warmRHS.Status != lp.Optimal || !warmRHS.Warm {
		t.Fatalf("warm re-solve (k=40): %v %v warm=%v", err, warmRHS.Status, warmRHS.Warm)
	}
	if got := pinOf(warmRHS); got != wantWarmRHS {
		t.Errorf("warm re-solve (k=40): got %#v, want %#v", got, wantWarmRHS)
	}
}

// warmPin is the fingerprint of one Remap run on the warm path: a hash
// of the floorplan plus the solver effort and warm-start counters.
type warmPin struct {
	mapHash                      uint64
	iters, solves, warm, rejects int
}

// TestWarmRemapPinned pins Remap with WarmHeuristics, which warm-starts
// the per-batch relaxations and every rounding-dive re-solve, on B13 and
// B2 in both modes. Refactorizing a warm basis and refreshing its basic
// values must reproduce every floorplan, iteration count, LP count and
// warm accept/reject count exactly.
func TestWarmRemapPinned(t *testing.T) {
	if core.RaceDetectorEnabled {
		t.Skip("skipping heavyweight sequential flow test under -race")
	}
	cases := []struct {
		bench string
		mode  core.Mode
		want  warmPin
	}{
		{"B13", core.Freeze, warmPin{0xc25025b482b3ae8d, 1651, 93, 85, 6}},
		{"B13", core.Rotate, warmPin{0x931acd07dea93745, 2350, 93, 75, 16}},
		{"B2", core.Freeze, warmPin{0x953a9dfb082b83ed, 25691, 1891, 1823, 64}},
		{"B2", core.Rotate, warmPin{0x3a0ad84c7cb5352, 36892, 1851, 1725, 122}},
	}
	for _, c := range cases {
		spec, ok := bench.SpecByName(c.bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", c.bench)
		}
		d, err := bench.Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		m0, err := place.Place(d, place.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Mode = c.mode
		opts.WarmHeuristics = true
		r, err := core.Remap(context.Background(), d, m0, opts)
		if err != nil {
			t.Fatalf("%s %v: %v", c.bench, c.mode, err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, pe := range r.Mapping {
			binary.LittleEndian.PutUint64(buf[:], uint64(d.Fabric.Index(pe)))
			h.Write(buf[:])
		}
		got := warmPin{h.Sum64(), r.Stats.SimplexIters, r.Stats.LPSolves,
			r.Stats.WarmStarts, r.Stats.WarmStartRejects}
		if got.warm == 0 {
			t.Errorf("%s %v: no warm start accepted", c.bench, c.mode)
		}
		if got != c.want {
			t.Errorf("%s %v: got %#v, want %#v", c.bench, c.mode, got, c.want)
		}
	}
}
