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

// rowBit reports whether p lists (r, k) by row r's bits, and colBit
// whether it does by column k's.
func rowBit(p *pattern, r, k int) bool { return p.rows[r*p.w+k>>6]&(1<<(k&63)) != 0 }
func colBit(p *pattern, r, k int) bool { return p.cols[k*p.w+r>>6]&(1<<(r&63)) != 0 }

// checkBits asserts the structure of p as the pattern of an m×m matrix:
// its stride fits m, no line sets a bit at or past m, and, when p keeps
// its columns, the column bitsets are exactly the transpose of the row
// bitsets.
func checkBits(p *pattern, m int) error {
	if p.w != (m+63)>>6 || len(p.rows) != m*p.w || (p.cols != nil && len(p.cols) != m*p.w) {
		return fmt.Errorf("pattern stride %d, %d row and %d column words for m=%d", p.w, len(p.rows), len(p.cols), m)
	}
	if m%64 != 0 {
		pad := ^uint64(0) << (m % 64)
		for r := 0; r < m; r++ {
			if w := p.rows[(r+1)*p.w-1]; w&pad != 0 {
				return fmt.Errorf("row %d lists past m: last word %#x", r, w)
			}
			if p.cols != nil {
				if w := p.cols[(r+1)*p.w-1]; w&pad != 0 {
					return fmt.Errorf("column %d lists past m: last word %#x", r, w)
				}
			}
		}
	}
	if p.cols == nil {
		return nil
	}
	for r := 0; r < m; r++ {
		for k := 0; k < m; k++ {
			if rowBit(p, r, k) != colBit(p, r, k) {
				return fmt.Errorf("position (%d, %d): row bit %v, column bit %v", r, k, rowBit(p, r, k), colBit(p, r, k))
			}
		}
	}
	return nil
}

// checkCovers asserts that p lists every nonzero of rows; a nil row is
// skipped.
func checkCovers(p *pattern, rows [][]float64, name string) error {
	for r, row := range rows {
		for k, v := range row {
			if v != 0 && !rowBit(p, r, k) {
				return fmt.Errorf("%s[%d][%d] = %g is not listed", name, r, k, v)
			}
		}
	}
	return nil
}

// checkPattern asserts the binv pattern invariant: the row and column
// bitsets are exact transposes, every nonzero of binv is listed, an
// implicit row lists exactly its diagonal, and the materialized-row
// count matches binv.
func checkPattern(s *solver) error {
	m := s.m
	if err := checkBits(&s.pat, m); err != nil {
		return err
	}
	if err := checkCovers(&s.pat, s.binv, "binv"); err != nil {
		return err
	}
	rows := 0
	for r, row := range s.binv {
		if row == nil {
			for k := 0; k < m; k++ {
				if rowBit(&s.pat, r, k) != (k == r) {
					return fmt.Errorf("implicit row %d: position %d listed %v, want only its diagonal", r, k, rowBit(&s.pat, r, k))
				}
			}
			continue
		}
		rows++
		if len(row) != m {
			return fmt.Errorf("binv row %d has length %d, want %d", r, len(row), m)
		}
	}
	if rows != s.rows {
		return fmt.Errorf("%d rows materialized, counted %d", rows, s.rows)
	}
	return nil
}

// zeroWords reports the first nonzero word in buf's whole array, which
// storage reuse needs zero beyond its length too.
func zeroWords(buf []uint64, name string) error {
	for i, w := range buf[:cap(buf)] {
		if w != 0 {
			return fmt.Errorf("%s word %d = %#x", name, i, w)
		}
	}
	return nil
}

// checkReleased asserts that released storage is ready for reuse: no
// binv row materialized, every free row zero, and every word of binv's
// and R's patterns and of the scratch sets zero.
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
	for _, c := range []struct {
		buf  []uint64
		name string
	}{
		{s.pat.rows, "binv row pattern"}, {s.pat.cols, "binv column pattern"},
		{s.rpat.rows, "R pattern"}, {s.nz.bits, "nz set"}, {s.nzR.bits, "nzR set"},
	} {
		if err := zeroWords(c.buf, c.name); err != nil {
			return err
		}
	}
	if len(s.nz.words) != 0 || len(s.nzR.words) != 0 {
		return fmt.Errorf("scratch sets hold words %v and %v", s.nz.words, s.nzR.words)
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

// listPattern is the list-based binv pattern the bitsets replaced, kept
// as their reference: rowNZ[r] lists row r's positions and colNZ[k]
// column k's, in fill order, and listed keeps a position from being
// listed twice; n counts the listed positions. A cold start lists the
// diagonal.
type listPattern struct {
	m            int
	rowNZ, colNZ [][]int32
	listed       []bool
	n            int
}

func newListPattern(m int) *listPattern {
	l := &listPattern{m: m, rowNZ: make([][]int32, m), colNZ: make([][]int32, m), listed: make([]bool, m*m)}
	for i := 0; i < m; i++ {
		l.list(i, i)
	}
	return l
}

// list records position (r, k) unless already there.
func (l *listPattern) list(r, k int) {
	if l.listed[r*l.m+k] {
		return
	}
	l.listed[r*l.m+k] = true
	l.n++
	l.rowNZ[r] = append(l.rowNZ[r], int32(k))
	l.colNZ[k] = append(l.colNZ[k], int32(r))
}

// pivot lists what the list-based rank-1 update listed when column enter
// replaced basis row r, reading s's inverse from before that pivot: w is
// FTRAN over the column lists, the pivot row is scaled at its listed
// positions, and every other row with w_i != 0 lists each nonzero
// position of the scaled pivot row where it held an exact zero.
func (l *listPattern) pivot(s *solver, r, enter int) {
	w := make([]float64, l.m)
	c := s.col(enter)
	for t, i := range c.idx {
		for _, q := range l.colNZ[i] {
			w[q] += s.at(int(q), int(i)) * c.val[t]
		}
	}
	invPiv := 1 / w[r]
	var nzIdx []int
	for _, k := range l.rowNZ[r] {
		if s.at(r, int(k))*invPiv != 0 {
			nzIdx = append(nzIdx, int(k))
		}
	}
	for i, wi := range w {
		if i == r || wi == 0 {
			continue
		}
		for _, k := range nzIdx {
			if s.at(i, k) == 0 {
				l.list(i, k)
			}
		}
	}
}

// sameListed reports the first position that the reference lists and
// s's bitsets do not, or the other way round, by row or by column.
func sameListed(l *listPattern, s *solver) error {
	for r := 0; r < l.m; r++ {
		for k := 0; k < l.m; k++ {
			want := l.listed[r*l.m+k]
			if rowBit(&s.pat, r, k) != want || colBit(&s.pat, r, k) != want {
				return fmt.Errorf("position (%d, %d): lists %v, row bit %v, column bit %v",
					r, k, want, rowBit(&s.pat, r, k), colBit(&s.pat, r, k))
			}
		}
	}
	return nil
}

// TestBitsetPatternMatchesLists holds the bitset pattern to the
// list-based update it replaced, after every pivot of cold solves of
// sparse, dense and gate LPs. Solving with MaxIter k, then k+1, exposes
// the inverse before and after iteration k+1 of the same path; the basis
// row that changed names the pivot, and a bound flip changes none.
func TestBitsetPatternMatchesLists(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pivots, fills := 0, 0
	for trial := 0; trial < 24; trial++ {
		var p *Problem
		switch {
		case trial%8 == 7:
			p = gateProblem(60+rng.Intn(40), int64(trial))
		case trial%8 == 6:
			p = slowProblem(rng, 20+rng.Intn(20))
		default:
			p = sparseProblem(rng)
		}
		prev := new(solver)
		newSolver(prev, p, Options{})
		ref := newListPattern(prev.m)
		if err := sameListed(ref, prev); err != nil {
			t.Fatalf("trial %d, initial basis: %v", trial, err)
		}
		for k := 1; ; k++ {
			cur := new(solver)
			newSolver(cur, p, Options{MaxIter: k})
			sol, err := cur.run()
			if err != nil {
				t.Fatal(err)
			}
			if sol.Iters < k {
				break
			}
			r := -1
			for i := range cur.basis {
				if cur.basis[i] != prev.basis[i] {
					if r >= 0 {
						t.Fatalf("trial %d, iteration %d: rows %d and %d changed", trial, k, r, i)
					}
					r = i
				}
			}
			if r >= 0 {
				before := ref.n
				ref.pivot(prev, r, cur.basis[r])
				pivots++
				if ref.n > before {
					fills++
				}
			}
			if err := sameListed(ref, cur); err != nil {
				t.Fatalf("trial %d (m=%d), after iteration %d: %v", trial, cur.m, k, err)
			}
			prev = cur
		}
	}
	t.Logf("%d pivots compared, %d with fill-in", pivots, fills)
	if pivots < 1000 || fills < 500 {
		t.Fatalf("only %d pivots, %d with fill-in", pivots, fills)
	}
}
