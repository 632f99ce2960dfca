package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseFactorize is the dense Gauss-Jordan elimination that factorize
// replaced, kept as its reference: the pivot search scans every unused
// row in ascending order, the pivot rows of [B | I] are scaled over all
// m positions, every row is checked for a multiplier, and the
// elimination runs over the scaled pivot rows' nonzero positions in
// ascending order. It reads only s.basis and the columns, and returns
// the basis inverse by rows, binv[col] = R[perm[col]], on new rows.
//
// Its one intended difference from factorize: scaling a pivot row by a
// negative inverse turns the row's zeros into -0, and those positions
// stay -0 wherever nothing else writes them, while factorize never
// touches an unlisted position and leaves it +0. No reader can tell:
// every read of a binv entry either is at a listed position (ftran,
// computeDuals, pivot, pivotRowAlphas, the refresh scatter), or compares
// the entry with zero (the fill test, pivotRowAlphas' filter, the dual
// ratio test's |alpha| <= pivTol), or adds its product to a sum that
// starts at +0, which a ±0 term never changes. The comparison below is
// therefore by bits at listed positions, which hold nonzeros, and by
// value elsewhere.
func denseFactorize(s *solver) (perm []int, binv [][]float64, ok bool) {
	m := s.m
	B, R := make([][]float64, m), make([][]float64, m)
	for r := range B {
		B[r], R[r] = make([]float64, m), make([]float64, m)
		R[r][r] = 1
	}
	maxAbs := 0.0
	for k, j := range s.basis {
		c := s.col(j)
		for t, i := range c.idx {
			B[i][k] = c.val[t]
			maxAbs = math.Max(maxAbs, math.Abs(c.val[t]))
		}
	}
	pivTolAbs := 1e-10 * math.Max(1, maxAbs)
	perm = make([]int, m)
	usedRow := make([]bool, m)
	var nzB, nzR []int
	for col := 0; col < m; col++ {
		pr, pv := -1, pivTolAbs
		for r := 0; r < m; r++ {
			if usedRow[r] {
				continue
			}
			if a := math.Abs(B[r][col]); a > pv {
				pr, pv = r, a
			}
		}
		if pr < 0 {
			return nil, nil, false
		}
		usedRow[pr] = true
		perm[col] = pr
		inv := 1 / B[pr][col]
		rowB, rowR := B[pr], R[pr]
		nzB, nzR = nzB[:0], nzR[:0]
		for k := 0; k < m; k++ {
			rowB[k] *= inv
			rowR[k] *= inv
			if rowB[k] != 0 {
				nzB = append(nzB, k)
			}
			if rowR[k] != 0 {
				nzR = append(nzR, k)
			}
		}
		for r := 0; r < m; r++ {
			if r == pr {
				continue
			}
			f := B[r][col]
			if f == 0 {
				continue
			}
			for _, k := range nzB {
				B[r][k] -= f * rowB[k]
			}
			for _, k := range nzR {
				R[r][k] -= f * rowR[k]
			}
		}
	}
	binv = make([][]float64, m)
	for col := range binv {
		binv[col] = R[perm[col]]
	}
	return perm, binv, true
}

// denseRefresh is the dense sweep refresh replaced: xB[i] is row i of
// the reference inverse times the residual, summed over every position
// in ascending order.
func denseRefresh(s *solver, binv [][]float64) []float64 {
	r := append([]float64(nil), s.b...)
	for j := 0; j < s.n; j++ {
		if s.vstat[j] == basic || s.x[j] == 0 {
			continue
		}
		c := s.col(j)
		for k, i := range c.idx {
			r[i] -= c.val[k] * s.x[j]
		}
	}
	xB := make([]float64, s.m)
	for i, row := range binv {
		v := 0.0
		for k := range row {
			v += row[k] * r[k]
		}
		xB[i] = v
	}
	return xB
}

// factorizeMatches factorizes s's basis both ways and compares the
// verdict, perm, the implicit-row set, diag and every binv entry, then
// refreshes the basic values both ways and compares them by bits. s's
// binv and pattern must be empty, as newWarmSolver leaves them. It runs
// factorize's three steps itself, to check between the elimination and
// the install that B's and R's patterns list every nonzero of B and R
// and that B's row and column bitsets are exact transposes.
func factorizeMatches(s *solver) (ok bool, err error) {
	wantPerm, want, wantOK := denseFactorize(s)
	B, R, tol := s.loadFactors()
	perm, elimOK := s.eliminate(B, R, tol)
	for _, err := range []error{
		checkBits(&s.pat, s.m), checkCovers(&s.pat, B, "B"),
		checkBits(&s.rpat, s.m), checkCovers(&s.rpat, R, "R"),
	} {
		if err != nil {
			return wantOK, fmt.Errorf("after elimination: %v", err)
		}
	}
	if got := s.installInverse(B, R, perm, elimOK); got != wantOK {
		return got, fmt.Errorf("factorize ok = %v, dense %v", got, wantOK)
	}
	if err := zeroWords(s.rpat.rows, "R pattern"); err != nil {
		return wantOK, fmt.Errorf("after factorize: %v", err)
	}
	if !wantOK {
		return false, checkReleased(s)
	}
	if err := checkPattern(s); err != nil {
		return true, err
	}
	for col, row := range want {
		if s.perm[col] != wantPerm[col] {
			return true, fmt.Errorf("perm[%d] = %d, dense %d", col, s.perm[col], wantPerm[col])
		}
		nz := 0
		for _, v := range row {
			if v != 0 {
				nz++
			}
		}
		if implicit := nz == 1 && row[col] != 0; implicit != (s.binv[col] == nil) {
			return true, fmt.Errorf("row %d implicit = %v, dense %v", col, s.binv[col] == nil, implicit)
		}
		if s.binv[col] == nil {
			if math.Float64bits(s.diag[col]) != math.Float64bits(row[col]) {
				return true, fmt.Errorf("diag[%d] = %v, dense %v", col, s.diag[col], row[col])
			}
			continue
		}
		listed := 0
		for k := range row {
			if !rowBit(&s.pat, col, k) {
				continue
			}
			listed++
			if got := s.binv[col][k]; math.Float64bits(got) != math.Float64bits(row[k]) {
				return true, fmt.Errorf("binv[%d][%d] = %v, dense %v", col, k, got, row[k])
			}
		}
		if listed != nz {
			return true, fmt.Errorf("row %d lists %d positions, dense has %d nonzeros", col, listed, nz)
		}
		for k, v := range s.binv[col] {
			if v != row[k] {
				return true, fmt.Errorf("binv[%d][%d] = %v, dense %v", col, k, v, row[k])
			}
		}
	}
	wantXB := denseRefresh(s, want)
	s.refresh()
	for i, v := range wantXB {
		if math.Float64bits(s.xB[i]) != math.Float64bits(v) ||
			math.Float64bits(s.x[s.basis[i]]) != math.Float64bits(v) {
			return true, fmt.Errorf("refresh xB[%d] = %v (x %v), dense %v", i, s.xB[i], s.x[s.basis[i]], v)
		}
	}
	return true, nil
}

// TestFactorizeMatchesDense holds factorize and refresh to the dense
// reference on the bases a cold solve passes through (phase 1 with its
// artificials, phase 2, the optimum) of sparse, dense and gate LPs, on
// those bases with one column swapped for a nonbasic one, and on
// singular ones with a column repeated. Nonbasic values are moved off
// their bounds at random so the residuals carry zeros and nonzeros.
func TestFactorizeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	counts := map[string]int{}
	bases := 0
	for trial := 0; trial < 60; trial++ {
		var p *Problem
		switch {
		case trial%10 == 9:
			p = gateProblem(60+rng.Intn(90), int64(trial))
		case trial%10 == 8:
			p = slowProblem(rng, 20+rng.Intn(40))
		default:
			p = sparseProblem(rng)
		}
		for _, limit := range []int{0, 1, 2, 5, 10, 20, 50, 100, 200, -1} {
			s := new(solver)
			newSolver(s, p, Options{MaxIter: max(limit, 0)})
			if limit != 0 {
				if _, err := s.run(); err != nil {
					t.Fatal(err)
				}
			}
			artificial := false
			for _, j := range s.basis {
				artificial = artificial || j >= s.artStart
			}
			for variant := 0; variant < 3; variant++ {
				// Factorize against empty storage, as newWarmSolver does.
				s.release()
				s.csc = p.columns()
				kind := "path"
				switch variant {
				case 1: // one basic column swapped for a nonbasic one
					nb := rng.Intn(s.n)
					if s.vstat[nb] == basic {
						continue
					}
					r := rng.Intn(s.m)
					s.vstat[s.basis[r]], s.vstat[nb] = atLower, basic
					s.basis[r] = nb
					kind = "swapped"
				case 2: // a basic column repeated: singular
					if s.m < 2 {
						continue
					}
					r := rng.Intn(s.m)
					s.basis[(r+1)%s.m] = s.basis[r]
					kind = "repeated"
				}
				for j := 0; j < s.n; j++ {
					if s.vstat[j] != basic && rng.Intn(4) == 0 {
						s.x[j] = rng.NormFloat64()
					}
				}
				ok, err := factorizeMatches(s)
				if err != nil {
					t.Fatalf("trial %d, limit %d, %s basis (m=%d): %v", trial, limit, kind, s.m, err)
				}
				bases++
				counts[kind]++
				if ok {
					counts["nonsingular"]++
				} else {
					counts["singular"]++
				}
				if artificial && variant == 0 {
					counts["phase 1"]++
				}
			}
		}
	}
	t.Logf("%d bases: %v", bases, counts)
	if bases < 500 || counts["nonsingular"] < 300 || counts["singular"] < 100 || counts["phase 1"] < 50 {
		t.Fatalf("only %d bases: %v", bases, counts)
	}
}
