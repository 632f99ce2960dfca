package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"agingfp/internal/flight"
)

// randomProblem builds a random bounded LP that is feasible by
// construction: the RHS of every row is derived from a random interior
// point x0, with the row sense chosen to admit it.
func randomProblem(rng *rand.Rand) *Problem {
	n := 3 + rng.Intn(10)
	m := 2 + rng.Intn(8)
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		ub := 1 + rng.Float64()*9
		p.AddVar(rng.NormFloat64(), 0, ub)
		x0[j] = rng.Float64() * ub
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		v := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				c := rng.NormFloat64() * 2
				idx = append(idx, j)
				val = append(val, c)
				v += c * x0[j]
			}
		}
		if len(idx) == 0 {
			idx, val = []int{rng.Intn(n)}, []float64{1}
			v = x0[idx[0]]
		}
		switch rng.Intn(3) {
		case 0:
			p.MustAddRow(LE, v+rng.Float64()*2, idx, val)
		case 1:
			p.MustAddRow(GE, v-rng.Float64()*2, idx, val)
		default:
			p.MustAddRow(EQ, v, idx, val)
		}
	}
	return p
}

// tightenRandomBound narrows one variable's bounds around (or away from)
// its current solution value, mimicking a branch-and-bound or rounding
// pin. Returns false if no tightening was possible.
func tightenRandomBound(p *Problem, x []float64, rng *rand.Rand) bool {
	for try := 0; try < 20; try++ {
		j := rng.Intn(p.NumVars())
		lb, ub := p.Bounds(j)
		if ub-lb < 1e-6 {
			continue
		}
		switch rng.Intn(3) {
		case 0: // ceil-like: raise the lower bound past x[j]
			nl := x[j] + rng.Float64()*(ub-x[j])
			if nl > ub {
				nl = ub
			}
			p.SetBounds(j, nl, ub)
		case 1: // floor-like: drop the upper bound below x[j]
			nu := x[j] - rng.Float64()*(x[j]-lb)
			if nu < lb {
				nu = lb
			}
			p.SetBounds(j, lb, nu)
		default: // pin, as the rounding dive does
			v := lb + rng.Float64()*(ub-lb)
			p.SetBounds(j, v, v)
		}
		return true
	}
	return false
}

// TestWarmEquivalenceFuzz is the warm-start contract: for random feasible
// problems and random bound tightenings, a warm solve from the parent
// basis must reach the same status and objective as a cold solve.
func TestWarmEquivalenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	warmUsed := 0
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng)
		root, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("trial %d: root solve: %v", trial, err)
		}
		if root.Status != Optimal {
			t.Fatalf("trial %d: root status %v (feasible by construction)", trial, root.Status)
		}
		if root.Basis == nil {
			t.Fatalf("trial %d: optimal root carries no basis snapshot", trial)
		}

		child := p.CloneBounds()
		if !tightenRandomBound(child, root.X, rng) {
			continue
		}
		cold, err := Solve(context.Background(), child, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold child: %v", trial, err)
		}
		warm, err := Solve(context.Background(), child, Options{WarmStart: root.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm child: %v", trial, err)
		}
		if warm.Warm {
			warmUsed++
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v != cold %v (warm used: %v)",
				trial, warm.Status, cold.Status, warm.Warm)
		}
		if cold.Status == Optimal {
			tol := 1e-6 * (1 + math.Abs(cold.Obj))
			if math.Abs(warm.Obj-cold.Obj) > tol {
				t.Fatalf("trial %d: warm obj %g != cold %g", trial, warm.Obj, cold.Obj)
			}
			checkFeasible(t, child, warm.X)
		}
	}
	// The point of the exercise: the snapshot must actually be usable on
	// the overwhelming majority of single-bound changes.
	if warmUsed < 300 {
		t.Fatalf("warm start accepted only %d/400 times", warmUsed)
	}
}

// TestWarmRHSChange exercises the other warm-start axis: the same basis
// reused after the RHS moved (a Step-1 budget probe), including a change
// that makes the problem infeasible.
func TestWarmRHSChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng)
		root, err := Solve(context.Background(), p, Options{})
		if err != nil || root.Status != Optimal {
			t.Fatalf("trial %d: root %v %v", trial, err, root.Status)
		}
		// Perturb every RHS in place (rows are shared by CloneBounds, so
		// rebuild the problem with shifted RHS instead).
		q := NewProblem()
		for j := 0; j < p.NumVars(); j++ {
			lb, ub := p.Bounds(j)
			q.AddVar(p.Obj(j), lb, ub)
		}
		for _, r := range p.Rows() {
			q.MustAddRow(r.Sense, r.RHS+rng.NormFloat64(), r.Idx, r.Val)
		}
		cold, err := Solve(context.Background(), q, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold: %v", trial, err)
		}
		warm, err := Solve(context.Background(), q, Options{WarmStart: root.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v != cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			tol := 1e-6 * (1 + math.Abs(cold.Obj))
			if math.Abs(warm.Obj-cold.Obj) > tol {
				t.Fatalf("trial %d: warm obj %g != cold %g", trial, warm.Obj, cold.Obj)
			}
			checkFeasible(t, q, warm.X)
		}
	}
}

// TestWarmShapeMismatchRejected feeds a basis from a different problem
// shape; the solve must quietly fall back to the cold path.
func TestWarmShapeMismatchRejected(t *testing.T) {
	small := NewProblem()
	a := small.AddVar(-1, 0, 2)
	small.MustAddRow(LE, 1, []int{a}, []float64{1})
	rootSmall, err := Solve(context.Background(), small, Options{})
	if err != nil || rootSmall.Status != Optimal {
		t.Fatalf("small solve: %v %v", err, rootSmall.Status)
	}

	big := NewProblem()
	x := big.AddVar(-1, 0, 3)
	y := big.AddVar(-1, 0, 3)
	big.MustAddRow(LE, 4, []int{x, y}, []float64{1, 1})
	sol, err := Solve(context.Background(), big, Options{WarmStart: rootSmall.Basis})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Warm {
		t.Fatal("mismatched basis was not rejected")
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-(-4)) > testTol {
		t.Fatalf("fallback solve wrong: %v obj %g", sol.Status, sol.Obj)
	}

	// The shape is checked before any set-up: the rejected warm start
	// times as many set-up steps as a cold solve.
	setups := func(opt Options) int64 {
		opt.Profile = true
		sol, err := Solve(context.Background(), big, opt)
		if err != nil {
			t.Fatal(err)
		}
		return sol.Profile.Phases[flight.PhaseSetup].Count
	}
	if warm, cold := setups(Options{WarmStart: rootSmall.Basis}), setups(Options{}); warm != cold {
		t.Fatalf("mismatched warm start ran %d set-up steps, a cold solve %d", warm, cold)
	}
}

// TestWarmReSolveSameProblem: re-solving the identical problem warm must
// terminate immediately at the same optimum.
func TestWarmReSolveSameProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng)
		first, err := Solve(context.Background(), p, Options{})
		if err != nil || first.Status != Optimal {
			t.Fatalf("trial %d: first %v %v", trial, err, first.Status)
		}
		again, err := Solve(context.Background(), p, Options{WarmStart: first.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm: %v", trial, err)
		}
		if !again.Warm {
			t.Fatalf("trial %d: identical re-solve rejected the warm basis", trial)
		}
		if again.Status != Optimal || math.Abs(again.Obj-first.Obj) > 1e-6*(1+math.Abs(first.Obj)) {
			t.Fatalf("trial %d: warm re-solve %v obj %g, want %g", trial, again.Status, again.Obj, first.Obj)
		}
		if again.Iters > 3 {
			t.Fatalf("trial %d: identical warm re-solve took %d iterations", trial, again.Iters)
		}
	}
}
