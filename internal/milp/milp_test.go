package milp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"agingfp/internal/lp"
)

// bruteBinary enumerates all 0/1 assignments of a problem whose variables
// are all binary, returning the optimal objective (or +Inf if infeasible).
func bruteBinary(p *lp.Problem, rows []lp.Row) float64 {
	n := p.NumVars()
	best := math.Inf(1)
	x := make([]float64, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			for _, r := range rows {
				v := 0.0
				for k, jj := range r.Idx {
					v += r.Val[k] * x[jj]
				}
				switch r.Sense {
				case lp.LE:
					if v > r.RHS+1e-9 {
						return
					}
				case lp.GE:
					if v < r.RHS-1e-9 {
						return
					}
				case lp.EQ:
					if math.Abs(v-r.RHS) > 1e-9 {
						return
					}
				}
			}
			obj := 0.0
			for jj := 0; jj < n; jj++ {
				obj += p.Obj(jj) * x[jj]
			}
			if obj < best {
				best = obj
			}
			return
		}
		lb, ub := p.Bounds(j)
		for v := lb; v <= ub; v++ {
			x[j] = v
			rec(j + 1)
		}
	}
	rec(0)
	return best
}

// randomBinaryProblem builds a random 0/1 program and also returns its
// rows for the brute-force checker.
func randomBinaryProblem(rng *rand.Rand) (*lp.Problem, []lp.Row, []int) {
	n := 3 + rng.Intn(8)
	m := 1 + rng.Intn(5)
	p := lp.NewProblem()
	ints := make([]int, n)
	for j := 0; j < n; j++ {
		ints[j] = p.AddVar(float64(rng.Intn(21)-10), 0, 1)
	}
	var rows []lp.Row
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				idx = append(idx, j)
				val = append(val, float64(rng.Intn(9)-4))
			}
		}
		if len(idx) == 0 {
			idx = append(idx, rng.Intn(n))
			val = append(val, 1)
		}
		sense := lp.Sense(rng.Intn(3))
		rhs := float64(rng.Intn(11) - 3)
		if sense == lp.EQ {
			// Keep equality rows satisfiable often: rhs from a random
			// binary point.
			rhs = 0
			for k := range idx {
				if rng.Intn(2) == 1 {
					rhs += val[k]
				}
			}
		}
		p.MustAddRow(sense, rhs, idx, val)
		rows = append(rows, lp.Row{Sense: sense, RHS: rhs, Idx: idx, Val: val})
	}
	return p, rows, ints
}

func TestAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, rows, ints := randomBinaryProblem(rng)
		want := bruteBinary(p, rows)
		res, err := Solve(context.Background(), &Problem{LP: p, IntVars: ints}, Options{MaxNodes: 50000})
		if err != nil {
			t.Logf("seed %d: error %v", seed, err)
			return false
		}
		if math.IsInf(want, 1) {
			if res.Status != Infeasible {
				t.Logf("seed %d: want infeasible, got %v obj %g", seed, res.Status, res.Obj)
				return false
			}
			return true
		}
		if res.Status != Optimal {
			t.Logf("seed %d: want optimal, got %v", seed, res.Status)
			return false
		}
		if math.Abs(res.Obj-want) > 1e-6 {
			t.Logf("seed %d: obj %g, brute %g", seed, res.Obj, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKnapsack(t *testing.T) {
	// Classic 0/1 knapsack with known optimum.
	// items: (w, v): (2,3) (3,4) (4,5) (5,6), cap 5 -> best value 7 (2+3).
	p := lp.NewProblem()
	w := []float64{2, 3, 4, 5}
	v := []float64{3, 4, 5, 6}
	ints := make([]int, len(w))
	for i := range w {
		ints[i] = p.AddVar(-v[i], 0, 1)
	}
	p.MustAddRow(lp.LE, 5, ints, w)
	res, err := Solve(context.Background(), &Problem{LP: p, IntVars: ints}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-(-7)) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal -7", res.Status, res.Obj)
	}
}

func TestIntegerAssignmentFeasibility(t *testing.T) {
	// Pure feasibility: 3 ops, 3 PEs, stress budget forces a perfect
	// spread. Mirrors the structure of the re-mapper's formulation.
	p := lp.NewProblem()
	stress := []float64{0.6, 0.6, 0.6}
	var vars [][]int
	var ints []int
	for i := 0; i < 3; i++ {
		row := make([]int, 3)
		for k := 0; k < 3; k++ {
			row[k] = p.AddVar(0, 0, 1)
			ints = append(ints, row[k])
		}
		vars = append(vars, row)
		p.MustAddRow(lp.EQ, 1, row, []float64{1, 1, 1})
	}
	for k := 0; k < 3; k++ {
		idx := []int{vars[0][k], vars[1][k], vars[2][k]}
		p.MustAddRow(lp.LE, 0.7, idx, stress) // budget < 2 ops' stress
	}
	res, err := Solve(context.Background(), &Problem{LP: p, IntVars: ints}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("got %v, want feasible assignment", res.Status)
	}
	// Each PE must hold exactly one op.
	for k := 0; k < 3; k++ {
		sum := res.X[vars[0][k]] + res.X[vars[1][k]] + res.X[vars[2][k]]
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("PE %d holds %g ops", k, sum)
		}
	}
}

func TestInfeasibleBudget(t *testing.T) {
	// Two ops, one PE, budget below one op's stress: infeasible.
	p := lp.NewProblem()
	a := p.AddVar(0, 0, 1)
	b := p.AddVar(0, 0, 1)
	p.MustAddRow(lp.EQ, 1, []int{a}, []float64{1})
	p.MustAddRow(lp.EQ, 1, []int{b}, []float64{1})
	p.MustAddRow(lp.LE, 0.5, []int{a, b}, []float64{0.6, 0.6})
	res, err := Solve(context.Background(), &Problem{LP: p, IntVars: []int{a, b}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("got %v, want infeasible", res.Status)
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := lp.NewProblem()
	var ints []int
	var val []float64
	for j := 0; j < 30; j++ {
		ints = append(ints, p.AddVar(-(1+rng.Float64()), 0, 1))
		val = append(val, 1+rng.Float64()*3)
	}
	p.MustAddRow(lp.LE, 20, ints, val)
	res, err := Solve(context.Background(), &Problem{LP: p, IntVars: ints}, Options{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 2 {
		t.Fatalf("solved %d nodes, limit 2", res.Nodes)
	}
	if res.Status == Infeasible {
		t.Fatalf("node-limited search must not claim infeasibility")
	}
}

// TestTimeLimit: a wall-clock budget is a context deadline. An expired
// deadline stops the search promptly and never claims infeasibility.
func TestTimeLimit(t *testing.T) {
	p := lp.NewProblem()
	var ints []int
	var val []float64
	rng := rand.New(rand.NewSource(5))
	for j := 0; j < 40; j++ {
		ints = append(ints, p.AddVar(-(1+rng.Float64()), 0, 1))
		val = append(val, 1+rng.Float64()*3)
	}
	p.MustAddRow(lp.LE, 25, ints, val)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve(ctx, &Problem{LP: p, IntVars: ints}, Options{})
	if time.Since(start) > 5*time.Second {
		t.Fatalf("deadline ignored")
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal(err)
	}
	if res.Status == Infeasible {
		t.Fatalf("time-limited search must not claim infeasibility")
	}
}

func TestRootObjIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		p, rows, ints := randomBinaryProblem(rng)
		res, err := Solve(context.Background(), &Problem{LP: p, IntVars: ints}, Options{MaxNodes: 50000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			continue
		}
		if !math.IsNaN(res.RootObj) && res.RootObj > res.Obj+1e-6 {
			t.Fatalf("trial %d: root LP %g above integer optimum %g", trial, res.RootObj, res.Obj)
		}
		_ = rows
	}
}

func TestStopAtFirst(t *testing.T) {
	// With StopAtFirst the solver may return a suboptimal incumbent, but
	// it must be integral and feasible.
	p := lp.NewProblem()
	var ints []int
	for j := 0; j < 10; j++ {
		ints = append(ints, p.AddVar(-float64(j+1), 0, 1))
	}
	val := make([]float64, 10)
	for i := range val {
		val[i] = 1
	}
	p.MustAddRow(lp.LE, 5, ints, val)
	res, err := Solve(context.Background(), &Problem{LP: p, IntVars: ints}, Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal && res.Status != Feasible {
		t.Fatalf("status %v", res.Status)
	}
	for _, j := range ints {
		if math.Abs(res.X[j]-math.Round(res.X[j])) > 1e-6 {
			t.Fatalf("non-integral x[%d] = %g", j, res.X[j])
		}
	}
}

// TestStatusString pins the Stringer for every declared status plus the
// unknown-value fallback, which log lines and flight-recorder events
// rely on for stable text.
func TestStatusString(t *testing.T) {
	cases := []struct {
		s    Status
		want string
	}{
		{Optimal, "optimal"},
		{Feasible, "feasible"},
		{NodeLimit, "node-limit"},
		{Canceled, "canceled"},
		{Infeasible, "infeasible"},
		{Status(42), "Status(42)"},
		{Status(-1), "Status(-1)"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("Status(%d).String() = %q, want %q", int(c.s), got, c.want)
		}
	}
}
