package lp

import (
	"math"
	"math/bits"
)

// Basis is an opaque snapshot of an optimal simplex basis, suitable for
// warm-starting a later solve of a structurally identical problem (same
// variable and row counts; bounds, RHS, and objective may differ).
// Snapshots are emitted on Solution.Basis for optimal solves and accepted
// via Options.WarmStart.
//
// A snapshot records only combinatorial state — the row-to-variable basis
// assignment and every variable's bound status — never values, so a warm
// start is always re-derived from the new problem's data: the basis is
// refactorized, basic values recomputed, and the solve finished with the
// dual simplex (bound/RHS changes leave the basis dual feasible) or the
// primal simplex. A basis that is stale, singular, or infeasible in both
// senses is rejected and the caller's Solve falls back to the cold
// two-phase path, so warm starting can change performance but never
// results.
type Basis struct {
	nStruct, m int32
	basis      []int32 // row -> basic variable (structural or slack)
	vstat      []int8  // status per variable, structurals then slacks
}

// snapshot captures the current basis. Artificials still basic (possible
// after a degenerate phase 1) are recorded as the slack of their row: the
// two columns are parallel (+-e_i), so the slack cannot also be basic and
// the recorded basis stays nonsingular.
func (s *solver) snapshot() *Basis {
	nb := s.nStruct + s.m
	b := &Basis{
		nStruct: int32(s.nStruct),
		m:       int32(s.m),
		basis:   make([]int32, s.m),
		vstat:   make([]int8, nb),
	}
	copy(b.vstat, s.vstat[:nb])
	for i, bi := range s.basis {
		if bi >= s.artStart {
			row := int(s.units[bi-s.nStruct].idx[0])
			bi = s.nStruct + row
			b.vstat[bi] = basic
		}
		b.basis[i] = int32(bi)
	}
	return b
}

// Warm-start reject reasons, as journaled by the flight recorder and
// labeled on the agingfp_lp_warmstart_rejects_total counter.
const (
	// rejectDimMismatch: the snapshot's shape does not fit the problem.
	rejectDimMismatch = "dim_mismatch"
	// rejectStaleBasis: the shape fits but the combinatorial state is
	// inconsistent (wrong basic count, duplicates, bad statuses) or the
	// dual reoptimization was inconclusive.
	rejectStaleBasis = "stale_basis"
	// rejectSingular: the recorded basis matrix would not factorize
	// against the current data.
	rejectSingular = "singular"
)

// newWarmSolver builds into s a solver positioned at the snapshot basis,
// or reports a non-empty reject reason when the snapshot does not fit
// the problem (shape mismatch, inconsistent statuses, or a singular
// basis matrix). A shape mismatch is found before any set-up work.
func newWarmSolver(s *solver, p *Problem, opt Options, ws *Basis) string {
	m, nStruct := len(p.rows), len(p.c)
	if int(ws.nStruct) != nStruct || int(ws.m) != m ||
		len(ws.vstat) != nStruct+m || len(ws.basis) != m {
		return rejectDimMismatch
	}
	newCore(s, p, opt)

	// Statuses from the snapshot; verify each is known and the basis set
	// is consistent.
	copy(s.vstat, ws.vstat)
	basicCount := 0
	for _, st := range s.vstat {
		if !knownStatus(st) {
			return rejectStaleBasis
		}
		if st == basic {
			basicCount++
		}
	}
	if basicCount != s.m {
		return rejectStaleBasis
	}
	seen := resize(s.mark, s.n)
	s.mark = seen
	clear(seen)
	for i, bj := range ws.basis {
		j := int(bj)
		if j < 0 || j >= s.n || s.vstat[j] != basic || seen[j] {
			return rejectStaleBasis
		}
		seen[j] = true
		s.basis[i] = j
	}

	// Park nonbasic variables on their recorded bound, re-deriving the
	// side when the current problem's bound on that side is infinite (a
	// status can go stale when bounds change between solves).
	for j := 0; j < s.n; j++ {
		st := s.vstat[j]
		if st == basic {
			continue
		}
		lf, uf := !math.IsInf(s.lb[j], -1), !math.IsInf(s.ub[j], 1)
		switch {
		case st == atLower && !lf:
			if uf {
				st = atUpper
			} else {
				st = atFree
			}
		case st == atUpper && !uf:
			if lf {
				st = atLower
			} else {
				st = atFree
			}
		case st == atFree && (lf || uf):
			// A parked free variable whose bounds became finite must sit
			// on a bound; take the one nearest zero as the cold path does.
			if lf && (!uf || math.Abs(s.lb[j]) <= math.Abs(s.ub[j])) {
				st = atLower
			} else {
				st = atUpper
			}
		}
		switch st {
		case atLower:
			s.x[j] = s.lb[j]
		case atUpper:
			s.x[j] = s.ub[j]
		default:
			s.x[j] = 0
		}
		s.vstat[j] = st
	}

	if !s.factorize() {
		return rejectSingular
	}
	s.refresh() // basic values for the new bounds/RHS
	return ""
}

// factorize computes the explicit basis inverse for the current basis
// assignment by Gauss-Jordan elimination with partial pivoting, and
// lists its nonzero pattern, reporting false on a (near-)singular basis.
// The elimination works on [B | R], R = I, in rows taken from the
// storage. B's pattern lives in the (still empty) binv pattern and R's
// in rpat; every write to either matrix is at a listed position, so
// both are zeroed at exactly those positions before their rows go back.
// R's rows become binv's, listed from R's pattern where nonzero, and one
// left holding only its diagonal goes implicit.
func (s *solver) factorize() bool {
	var t0 int64
	if s.prof != nil {
		t0 = s.prof.clock()
		defer func() { s.prof.direct(phSetup, t0) }()
	}
	B, R, tol := s.loadFactors()
	perm, ok := s.eliminate(B, R, tol)
	return s.installInverse(B, R, perm, ok)
}

// loadFactors takes the rows of [B | R] from the storage, loads the
// basis columns into B and the identity into R, lists both, and returns
// the elimination's pivot tolerance.
func (s *solver) loadFactors() (B, R [][]float64, pivTolAbs float64) {
	m := s.m
	B, R = resize(s.facB, m), resize(s.facR, m)
	s.facB, s.facR = B, R
	s.rpat.size(m, false) // all zero: installInverse clears every bit
	for r := 0; r < m; r++ {
		B[r], R[r] = s.newRow(), s.newRow()
		R[r][r] = 1
		s.rpat.set(r, r)
	}
	maxAbs := 0.0
	for k, j := range s.basis {
		c := s.col(j)
		for t, i := range c.idx {
			B[i][k] = c.val[t]
			s.pat.set(int(i), k)
			if a := math.Abs(c.val[t]); a > maxAbs {
				maxAbs = a
			}
		}
	}
	return B, R, 1e-10 * math.Max(1, maxAbs)
}

// installInverse hands B's rows back zeroed and, when the elimination
// succeeded (ok), makes R's rows binv's in perm's order, listed where
// nonzero; otherwise it hands R's rows back too. Either way both
// patterns end empty.
func (s *solver) installInverse(B, R [][]float64, perm []int, ok bool) bool {
	// The rows end up in binv or free; drop the headers' aliases of them.
	defer func() { clear(B); clear(R) }()
	for r, row := range B {
		s.pat.clearRow(r, row)
	}
	s.free = append(s.free, B...)
	if !ok {
		for r, row := range R {
			s.rpat.clearRow(r, row)
		}
		s.free = append(s.free, R...)
		return false
	}
	for col, pr := range perm {
		row := R[pr]
		nnz := 0
		rw := s.rpat.row(pr)
		for wi, word := range rw {
			if word == 0 {
				continue
			}
			rw[wi] = 0
			for base := wi << 6; word != 0; word &= word - 1 {
				if k := base | bits.TrailingZeros64(word); row[k] != 0 {
					s.pat.set(col, k)
					nnz++
				}
			}
		}
		if nnz == 1 && row[col] != 0 {
			s.diag[col], row[col] = row[col], 0
			s.free = append(s.free, row)
			continue
		}
		s.binv[col] = row
		s.rows++
	}
	return true
}

// eliminate reduces [B | I] -> [P | R] with R*B = P; then Binv = P^T * R,
// i.e. Binv[col] = R[perm[col]]. It touches nonzeros only, and computes
// what a dense sweep over all m rows and positions computes, bit for
// bit:
//   - the pivot search walks B's column bits in ascending row order and
//     keeps the first maximum, as the dense scan does;
//   - the pivot rows are scaled at their listed positions, the rest
//     being zeros;
//   - only the rows listed in the pivot column are eliminated, over the
//     nonzero positions of the scaled pivot rows: skipped entries would
//     subtract f*0.
//
// Each position still receives its updates in pivot order, so the order
// within one pivot changes no value. Every position of B or R it fills
// in is listed first, a word at a time, as pivot lists binv's. ok is
// false when no pivot above pivTolAbs is left for some column.
func (s *solver) eliminate(B, R [][]float64, pivTolAbs float64) (perm []int, ok bool) {
	m := s.m
	perm = resize(s.perm, m)
	used := resize(s.mark, m)
	s.perm, s.mark = perm, used
	clear(used)
	nzB, nzR := &s.nz, &s.nzR
	defer func() { nzB.reset(); nzR.reset() }()
	for col := 0; col < m; col++ {
		pr, pv := -1, pivTolAbs
		colBits := s.pat.col(col)
		for wi, word := range colBits {
			for base := wi << 6; word != 0; word &= word - 1 {
				r := base | bits.TrailingZeros64(word)
				if a := math.Abs(B[r][col]); a > pv && !used[r] {
					pr, pv = r, a
				}
			}
		}
		if pr < 0 {
			return nil, false
		}
		used[pr] = true
		perm[col] = pr
		inv := 1 / B[pr][col]
		rowB, rowR := B[pr], R[pr]
		nzB.reset()
		nzR.reset()
		for wi, word := range s.pat.row(pr) {
			for base := wi << 6; word != 0; word &= word - 1 {
				k := base | bits.TrailingZeros64(word)
				if rowB[k] *= inv; rowB[k] != 0 {
					nzB.add(k)
				}
			}
		}
		for wi, word := range s.rpat.row(pr) {
			for base := wi << 6; word != 0; word &= word - 1 {
				k := base | bits.TrailingZeros64(word)
				if rowR[k] *= inv; rowR[k] != 0 {
					nzR.add(k)
				}
			}
		}
		// Filling B never lists a row in column col: each row eliminated
		// here already is, so colBits holds still under the loop.
		for wi, word := range colBits {
			for base := wi << 6; word != 0; word &= word - 1 {
				r := base | bits.TrailingZeros64(word)
				if r == pr {
					continue
				}
				f := B[r][col]
				if f == 0 {
					continue
				}
				tb, tr := B[r], R[r]
				s.pat.union(r, nzB)
				for _, k := range nzB.idx {
					tb[k] -= f * rowB[k]
				}
				s.rpat.union(r, nzR)
				for _, k := range nzR.idx {
					tr[k] -= f * rowR[k]
				}
			}
		}
	}
	return perm, true
}

// primalFeasible reports whether every basic value sits within its bounds.
func (s *solver) primalFeasible() bool {
	for i := 0; i < s.m; i++ {
		bi := s.basis[i]
		if s.xB[i] < s.lb[bi]-feasTol || s.xB[i] > s.ub[bi]+feasTol {
			return false
		}
	}
	return true
}

// dualFeasible reports whether the reduced costs of all nonbasic
// variables satisfy their status sign conditions under the given cost.
func (s *solver) dualFeasible(cost []float64) bool {
	y := s.y
	s.computeDuals(cost, y)
	s.reducedCosts(cost, y)
	for j := 0; j < s.n; j++ {
		st := s.vstat[j]
		if st == basic || s.lb[j] == s.ub[j] {
			continue
		}
		d := s.reducedCost(j, cost, y)
		switch st {
		case atLower:
			if d < -feasTol {
				return false
			}
		case atUpper:
			if d > feasTol {
				return false
			}
		case atFree:
			if math.Abs(d) > feasTol {
				return false
			}
		}
	}
	return true
}

// runWarm optimizes from the installed warm basis. ok=false asks the
// caller to fall back to a cold solve (the warm basis turned out
// unusable); ok=true returns a result equivalent to a cold solve. A
// non-nil error reports cancellation (the solve's context expired
// mid-reoptimization); the warm basis itself is never modified, so the
// caller may reuse it after a cancellation.
func (s *solver) runWarm() (*Solution, bool, error) {
	// Both feasibility checks are reduced-cost/bound scans; attribute
	// them to the pricing phase so a short warm solve's wall-clock does
	// not escape the profile.
	var t0 int64
	if s.prof != nil {
		t0 = s.prof.clock()
	}
	primalOK := s.primalFeasible()
	dualOK := false
	if !primalOK {
		dualOK = s.dualFeasible(s.cost)
	}
	if s.prof != nil {
		s.prof.direct(phPricing, t0)
	}
	switch {
	case primalOK:
		// The basis survived the data change primal feasible: plain
		// phase-2 primal simplex, no phase 1 needed.
	case dualOK:
		// The usual warm case: a bound/RHS tightening left the basis
		// dual feasible but primal infeasible — reoptimize directly
		// with the dual simplex.
		switch s.dualSimplex(s.cost) {
		case statusCanceled:
			return nil, false, s.ctx.Err()
		case Infeasible:
			return s.stamp(&Solution{Status: Infeasible, Iters: s.iters}), true, nil
		case IterLimit:
			return nil, false, nil
		}
		// Primal feasibility restored; fall through to the primal
		// polish below (normally zero iterations, it also guards the
		// numerics of the dual phase).
	default:
		return nil, false, nil
	}

	st := s.iterate(s.cost)
	if st == statusCanceled {
		return nil, false, s.ctx.Err()
	}
	sol := s.stamp(&Solution{Status: st, Iters: s.iters})
	if st == Optimal {
		sol.X = append([]float64(nil), s.x[:s.nStruct]...)
		obj := 0.0
		for j := 0; j < s.nStruct; j++ {
			obj += s.cost[j] * s.x[j]
		}
		sol.Obj = obj
		sol.Basis = s.snapshot()
	}
	return sol, true, nil
}

// pivotRowAlphas fills rc[j] = rho'A_j, rho = Binv[r,:], for the
// structural columns that can enter, by a scatter over rho's nonzero
// positions in ascending order (the order of row r's bits): each column
// adds the same nonzero terms in the same row order as a gather down
// the column.
func (s *solver) pivotRowAlphas(r int) {
	nz := s.rhoIdx[:0]
	for wi, word := range s.pat.row(r) {
		for base := wi << 6; word != 0; word &= word - 1 {
			if k := base | bits.TrailingZeros64(word); s.at(r, k) != 0 {
				nz = append(nz, int32(k))
			}
		}
	}
	s.rhoIdx = nz
	rc := s.rc
	clear(rc)
	for _, i := range nz {
		ri := s.at(r, int(i))
		pr := s.priceRows.line(int(i))
		val := pr.val[:len(pr.idx)]
		for t, j := range pr.idx {
			rc[j] += ri * val[t]
		}
	}
}

// dualSimplex restores primal feasibility from a dual-feasible basis,
// pivoting on the most-violated basic variable. Returns Optimal when
// primal feasibility is reached (dual feasibility is maintained, so the
// basis is then optimal up to the primal polish), Infeasible when a
// violated row admits no entering column (the primal infeasibility
// certificate), or IterLimit when the dual budget is exhausted — the
// caller treats that as a rejection and re-solves cold.
func (s *solver) dualSimplex(cost []float64) Status {
	m := s.m
	y, w := s.y, s.w
	prof := s.prof
	s.buildEligible()
	budget := 1000 + 10*m
	if budget > s.maxIter {
		budget = s.maxIter
	}
	reverified := false
	for it := 0; it < budget; it++ {
		if it%ctxCheckIters == 0 && s.canceled() {
			return statusCanceled
		}
		// The per-iteration dual recomputation dominates here (O(m²));
		// it is direct-timed into pricing, while ratio/ftran/update use
		// the sampled scheme shared with the primal loop.
		s.dualsProfiled(cost, y)

		// Leaving row: the basic variable with the largest bound
		// violation; none means primal feasible.
		r, viol := -1, feasTol
		var target float64
		var toLower bool
		for i := 0; i < m; i++ {
			bi := s.basis[i]
			if d := s.lb[bi] - s.xB[i]; d > viol {
				r, viol, target, toLower = i, d, s.lb[bi], true
			}
			if d := s.xB[i] - s.ub[bi]; d > viol {
				r, viol, target, toLower = i, d, s.ub[bi], false
			}
		}
		if r < 0 {
			return Optimal
		}

		var timed bool
		var t0 int64
		if prof != nil {
			timed = prof.beginIter()
			if timed {
				t0 = prof.clock()
			}
		}

		// Dual ratio test: among nonbasic columns whose movement pushes
		// xB[r] toward its violated bound, pick the smallest
		// |reduced cost| / |alpha| (ties to the larger pivot).
		s.pivotRowAlphas(r)
		enter, bestRatio, bestAlpha := -1, Inf, 0.0
		for _, j32 := range s.elig {
			j := int(j32)
			st := s.vstat[j]
			c := s.col(j)
			var alpha float64
			if j < s.nStruct {
				alpha = s.rc[j]
			} else {
				alpha = s.at(r, int(c.idx[0])) * c.val[0]
			}
			if math.Abs(alpha) <= pivTol {
				continue
			}
			// xB[r] changes by -alpha per unit increase of x_j; statuses
			// restrict the movement direction (atLower up, atUpper down).
			var ok bool
			if toLower {
				ok = (st == atLower && alpha < 0) || (st == atUpper && alpha > 0) || st == atFree
			} else {
				ok = (st == atLower && alpha > 0) || (st == atUpper && alpha < 0) || st == atFree
			}
			if !ok {
				continue
			}
			d := cost[j]
			for k, i := range c.idx {
				d -= y[i] * c.val[k]
			}
			ratio := math.Abs(d) / math.Abs(alpha)
			if ratio < bestRatio-1e-12 ||
				(ratio <= bestRatio+1e-12 && math.Abs(alpha) > math.Abs(bestAlpha)) {
				enter, bestRatio, bestAlpha = j, ratio, alpha
			}
		}
		if prof != nil {
			t0 = prof.phase(phRatio, timed, t0)
		}
		if enter < 0 {
			// No column can repair the row: primal infeasible. Refresh
			// once and re-verify before trusting the certificate.
			if !reverified {
				reverified = true
				s.refresh()
				continue
			}
			return Infeasible
		}
		reverified = false
		s.iters++

		s.ftran(enter, w)
		if prof != nil {
			t0 = prof.phase(phFtran, timed, t0)
		}

		// Entering direction and step length driving xB[r] to target.
		var dir float64
		switch s.vstat[enter] {
		case atLower:
			dir = 1
		case atUpper:
			dir = -1
		default: // atFree: move toward the violated bound
			if toLower == (w[r] < 0) {
				dir = 1
			} else {
				dir = -1
			}
		}
		denom := dir * w[r]
		if math.Abs(denom) <= pivTol {
			return IterLimit // numerically unusable pivot; reject
		}
		t := (s.xB[r] - target) / denom
		if t < 0 {
			t = 0
		}

		s.step(enter, dir, t, w)
		// Pivot: enter replaces basis[r], which leaves at its violated
		// bound.
		leave := atUpper
		if toLower {
			leave = atLower
		}
		s.pivot(r, enter, leave, w)
		if prof != nil {
			prof.phase(phUpdate, timed, t0)
			prof.pivotFamily(s.rowFamilyOf(r))
		}
	}
	return IterLimit
}
