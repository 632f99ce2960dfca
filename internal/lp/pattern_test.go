package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// sparseProblem builds a random sparse LP, feasible around a random
// point in its boxes, with rows of every sense.
func sparseProblem(rng *rand.Rand) *Problem {
	n := 20 + rng.Intn(60)
	m := 10 + rng.Intn(40)
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddVar(rng.NormFloat64(), -2, 3)
		x0[j] = -2 + 5*rng.Float64()
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		v := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.1 {
				c := float64(rng.Intn(5) - 2)
				if c == 0 {
					c = rng.NormFloat64()
				}
				idx = append(idx, j)
				val = append(val, c)
				v += c * x0[j]
			}
		}
		if len(idx) == 0 {
			j := rng.Intn(n)
			idx, val, v = []int{j}, []float64{1}, x0[j]
		}
		switch rng.Intn(3) {
		case 0:
			p.MustAddRow(EQ, v, idx, val)
		case 1:
			p.MustAddRow(GE, v-rng.Float64(), idx, val)
		default:
			p.MustAddRow(LE, v+rng.Float64(), idx, val)
		}
	}
	return p
}

// checkPattern asserts the binv pattern invariant: every nonzero of binv
// is listed exactly once in its column's colNZ and once in its row's
// rowNZ, and the two lists and the listed bitset name the same
// positions, each once. An implicit row lists exactly its diagonal, and
// the materialized-row count matches binv.
func checkPattern(s *solver) error {
	m := s.m
	inRow := make(map[[2]int]int)
	inCol := make(map[[2]int]int)
	for r, ks := range s.rowNZ {
		for _, k := range ks {
			inRow[[2]int{r, int(k)}]++
		}
	}
	for k, rs := range s.colNZ {
		for _, r := range rs {
			inCol[[2]int{int(r), k}]++
		}
	}
	for pos, c := range inRow {
		if c != 1 || inCol[pos] != 1 {
			return fmt.Errorf("position %v listed %d times by row, %d by column", pos, c, inCol[pos])
		}
		if b := pos[0]*m + pos[1]; s.listed[b>>6]&(1<<(b&63)) == 0 {
			return fmt.Errorf("position %v listed but not marked", pos)
		}
	}
	if len(inCol) != len(inRow) {
		return fmt.Errorf("%d positions listed by column, %d by row", len(inCol), len(inRow))
	}
	marked := 0
	for _, w := range s.listed {
		for ; w != 0; w &= w - 1 {
			marked++
		}
	}
	if marked != len(inRow) {
		return fmt.Errorf("%d positions marked, %d listed", marked, len(inRow))
	}
	rows := 0
	for r, row := range s.binv {
		if row == nil {
			if ks := s.rowNZ[r]; len(ks) != 1 || int(ks[0]) != r {
				return fmt.Errorf("implicit row %d lists %v, want its diagonal", r, ks)
			}
			continue
		}
		rows++
		if len(row) != m {
			return fmt.Errorf("binv row %d has length %d, want %d", r, len(row), m)
		}
		for k, v := range row {
			if v != 0 && inRow[[2]int{r, k}] != 1 {
				return fmt.Errorf("binv[%d][%d] = %g is not listed", r, k, v)
			}
		}
	}
	if rows != s.rows {
		return fmt.Errorf("%d rows materialized, counted %d", rows, s.rows)
	}
	return nil
}

// checkReleased asserts that released storage is ready for reuse: no
// binv row materialized, every free row and every listed bit zero, and
// every pattern list empty.
func checkReleased(s *solver) error {
	for r, row := range s.binv {
		if row != nil {
			return fmt.Errorf("binv row %d still materialized", r)
		}
	}
	for i, row := range s.free {
		for k, v := range row {
			if v != 0 {
				return fmt.Errorf("free row %d holds %g at %d", i, v, k)
			}
		}
	}
	for i, w := range s.listed {
		if w != 0 {
			return fmt.Errorf("listed word %d = %#x", i, w)
		}
	}
	for r := range s.rowNZ {
		if len(s.rowNZ[r]) != 0 || len(s.colNZ[r]) != 0 {
			return fmt.Errorf("pattern lists of %d not empty", r)
		}
	}
	return nil
}

// TestBinvPatternInvariant checks the pattern after cold solves of
// random sparse LPs and after warm re-solves of bound-tightened
// children, whose pattern factorize rebuilds before the dual simplex
// extends it.
func TestBinvPatternInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	warm := 0
	for trial := 0; trial < 150; trial++ {
		p := sparseProblem(rng)
		s := new(solver)
		newSolver(s, p, Options{})
		if err := checkPattern(s); err != nil {
			t.Fatalf("trial %d, initial basis: %v", trial, err)
		}
		root, err := s.run()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPattern(s); err != nil {
			t.Fatalf("trial %d, cold %v after %d iterations: %v", trial, root.Status, root.Iters, err)
		}
		s.release()
		if err := checkReleased(s); err != nil {
			t.Fatalf("trial %d, released after cold solve: %v", trial, err)
		}
		if root.Status != Optimal {
			continue
		}
		for k := 0; k < 3; k++ {
			child := p.CloneBounds()
			if !tightenRandomBound(child, root.X, rng) {
				continue
			}
			ws := new(solver)
			if reason := newWarmSolver(ws, child, Options{}, root.Basis); reason != "" {
				continue
			}
			if err := checkPattern(ws); err != nil {
				t.Fatalf("trial %d, factorized child %d: %v", trial, k, err)
			}
			sol, ok, err := ws.runWarm()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			warm++
			if err := checkPattern(ws); err != nil {
				t.Fatalf("trial %d, warm child %d %v after %d iterations: %v", trial, k, sol.Status, sol.Iters, err)
			}
			ws.release()
			if err := checkReleased(ws); err != nil {
				t.Fatalf("trial %d, released after warm child %d: %v", trial, k, err)
			}
		}
	}
	if warm < 100 {
		t.Fatalf("only %d warm re-solves ran", warm)
	}
}
