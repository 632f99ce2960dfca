package lp

import (
	"context"
	"math"
	"math/bits"
	"slices"
)

// statusCanceled is the internal sentinel the pivot loops return when
// the solve's context is done; run/runWarm map it to ctx.Err(). It is
// never stored on a Solution.
const statusCanceled Status = -1

// Variable statuses.
const (
	atLower int8 = iota
	atUpper
	atFree // nonbasic free variable, parked at zero
	basic
)

// knownStatus reports whether st is one of the variable statuses above.
func knownStatus(st int8) bool { return st >= atLower && st <= basic }

// colref views one sparse line: a column's row indices and values in
// row order, or, from the pricing copy, a row's column indices.
type colref struct {
	idx []int32
	val []float64
}

// sparseLines is a sparse matrix stored line by line: line k's indices
// and values are idx/val[start[k]:start[k+1]]. The problem's column copy
// stores columns; the pricing copy stores rows.
type sparseLines struct {
	start []int32
	idx   []int32
	val   []float64
}

// line returns line k as a capped view.
func (a *sparseLines) line(k int) colref {
	lo, hi := a.start[k], a.start[k+1]
	return colref{a.idx[lo:hi:hi], a.val[lo:hi:hi]}
}

// Value storage of the unit columns (slacks and artificials): every such
// column shares one of these read-only entries.
var (
	plusOne  = []float64{1}
	minusOne = []float64{-1}
)

type solver struct {
	m       int // rows
	nStruct int // structural variables
	n       int // total variables (struct + slacks + artificials)

	// csc holds the structural columns (the problem's shared copy,
	// read-only); units the slack and artificial columns, variable
	// nStruct+k at units[k].
	csc   *sparseLines
	units []colref
	cost  []float64 // phase-2 objective, extended with zeros
	lb    []float64
	ub    []float64
	b     []float64

	basis []int  // row -> basic variable
	vstat []int8 // variable -> status
	x     []float64
	xB    []float64

	// binv is the basis inverse by rows. A nil row is implicit: it holds
	// only its diagonal, whose value is in diag. A row materializes (see
	// writeRow) before anything scales or updates it, and stays
	// materialized until the solve's storage is released; rows counts
	// the materialized ones. free holds zeroed rows of length m for
	// later materializations.
	binv [][]float64
	diag []float64
	free [][]float64
	rows int

	// pat is binv's nonzero pattern, by rows and by columns: a
	// superset, where an entry that cancels to exactly zero stays
	// listed. An implicit row lists only its diagonal.
	pat pattern

	// y and w hold the duals and the FTRAN column of the pivot loops;
	// ph1 is the phase-1 cost vector.
	y, w, ph1 []float64

	// priceRows is the row-wise copy of the structural columns with
	// lb != ub, the only structurals pricing can enter; rc holds one
	// accumulator per structural column for the scatters over it.
	priceRows sparseLines
	rc        []float64

	// rowIdx holds 0..m-1; unit columns index into it.
	rowIdx []int32
	// elig lists, ascending, the columns pricing may enter: nonbasic
	// with lb != ub. Rebuilt at the start of each pivot loop, kept
	// current by pivot.
	elig []int32
	// wNZ lists, ascending, the rows where the last FTRAN's w is nonzero.
	wNZ []int32
	// nz/nzVal: scratch for the nonzero positions (ascending) and values
	// of the scaled pivot row of the last pivot; factorize's elimination
	// also uses nz, and nzR, for its pivot rows of B and R. rhoIdx:
	// scratch for the nonzero positions of the dual simplex's pivot row.
	nz, nzR nzSet
	nzVal   []float64
	rhoIdx  []int32

	artStart int // first artificial variable index (== n if none)

	maxIter int
	iters   int

	bland       bool
	degenCount  int // consecutive degenerate steps (resets; drives Bland's rule)
	degenTotal  int // all degenerate steps this solve (never resets; health counter)
	degenRunMax int // longest consecutive degenerate run this solve
	refreshes   int // primal refreshes / refactorizations this solve

	// prof is the kernel profiler, nil when profiling is off; the hot
	// loops pay one nil check per phase.
	prof *profiler
	// rowFam is the problem's row-family labels (shared, read-only),
	// for pivot attribution.
	rowFam []string

	// ctx carries the solve's cancellation signal; polled by the pivot
	// loops every ctxCheckIters iterations. nil disables the checks.
	ctx context.Context

	// Storage of factorize and refresh, kept across solves so that a
	// warm re-solve allocates none of it. facB/facR hold the row headers
	// of the elimination's [B | R]; rpat is R's pattern, by rows only;
	// perm records the pivot rows; mark is scratch flags (the warm
	// basis's columns, the used pivot rows); resid is refresh's residual.
	facB, facR [][]float64
	rpat       pattern
	perm       []int
	mark       []bool
	resid      []float64
}

const (
	feasTol  = 1e-7 // primal feasibility / dual optimality tolerance
	pivTol   = 1e-8
	degTol   = 1e-10
	blandTrg = 2000 // consecutive degenerate iterations before Bland's rule
	refreshN = 512  // iterations between primal refreshes

	// ctxCheckIters is the cooperative-cancellation poll interval of the
	// simplex loops: cheap enough to be negligible per iteration, tight
	// enough that a canceled solve returns within a few milliseconds.
	ctxCheckIters = 128
)

// canceled reports whether the solve's context is done. Polled at loop
// heads gated by iteration count, so the common path costs one nil
// check.
func (s *solver) canceled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// newCore builds into s the solver skeleton shared by the cold and warm
// paths: structural columns, costs, bounds, RHS, default nonbasic
// statuses, and one slack per row (indices nStruct..nStruct+m-1, in row
// order). No basis is installed; artStart is provisionally n (no
// artificials). s may hold the storage of an earlier solve: newCore
// releases it and reuses its arrays, so every field below is either
// rewritten or carried over empty.
func newCore(s *solver, p *Problem, opt Options) {
	var t0 int64
	if opt.prof != nil {
		t0 = opt.prof.clock()
	}
	s.release()
	m := len(p.rows)
	nStruct := len(p.c)
	nCap := nStruct + 2*m // room for the slacks and any artificials
	free := s.free
	if len(free) > 0 && len(free[0]) != m {
		free = nil
	}
	*s = solver{
		m:       m,
		nStruct: nStruct,
		prof:    opt.prof,
		rowFam:  p.rowFam,
		csc:     p.columns(),

		units:  slices.Grow(s.units[:0], 2*m),
		rowIdx: resize(s.rowIdx, m),
		cost:   append(slices.Grow(s.cost[:0], nCap), p.c...),
		lb:     append(slices.Grow(s.lb[:0], nCap), p.lb...),
		ub:     append(slices.Grow(s.ub[:0], nCap), p.ub...),
		b:      resize(s.b, m),
		x:      resize(s.x, nCap)[:nStruct],
		vstat:  resize(s.vstat, nCap)[:nStruct],
		basis:  resize(s.basis, m),
		xB:     resize(s.xB, m),
		rc:     resize(s.rc, nStruct),

		binv: resize(s.binv, m),
		diag: resize(s.diag, m),
		free: free,
		pat:  s.pat,
		y:    resize(s.y, m),
		w:    resize(s.w, m),
		ph1:  s.ph1,

		priceRows: s.priceRows,
		elig:      s.elig[:0],
		wNZ:       s.wNZ[:0],
		nz:        s.nz,
		nzR:       s.nzR,
		nzVal:     s.nzVal[:0],
		rhoIdx:    s.rhoIdx[:0],

		facB:  s.facB,
		facR:  s.facR,
		rpat:  s.rpat,
		perm:  s.perm,
		mark:  s.mark,
		resid: s.resid,
	}
	s.pat.size(m, true)
	s.nz.size(m)
	s.nzR.size(m)
	for i := range s.rowIdx {
		s.rowIdx[i] = int32(i)
	}
	for i, r := range p.rows {
		s.b[i] = r.RHS
	}
	clear(s.rc)

	// Pricing copy: each row's entries in the columns that can enter,
	// counted first so a dive that has fixed most columns allocates only
	// what is left. Bounds of structurals never change within a solve.
	nnz := 0
	for j := 0; j < nStruct; j++ {
		if s.lb[j] != s.ub[j] {
			nnz += int(s.csc.start[j+1] - s.csc.start[j])
		}
	}
	pr := sparseLines{
		start: resize(s.priceRows.start, m+1),
		idx:   slices.Grow(s.priceRows.idx[:0], nnz),
		val:   slices.Grow(s.priceRows.val[:0], nnz),
	}
	pr.start[0] = 0
	for i, r := range p.rows {
		for k, j := range r.Idx {
			if s.lb[j] != s.ub[j] {
				pr.idx = append(pr.idx, int32(j))
				pr.val = append(pr.val, r.Val[k])
			}
		}
		pr.start[i+1] = int32(len(pr.idx))
	}
	s.priceRows = pr

	// Initial nonbasic statuses and values for structurals: the finite
	// bound nearest zero, or zero for free variables.
	for j := 0; j < nStruct; j++ {
		lf, uf := !math.IsInf(s.lb[j], -1), !math.IsInf(s.ub[j], 1)
		switch {
		case lf && uf:
			if math.Abs(s.lb[j]) <= math.Abs(s.ub[j]) {
				s.vstat[j], s.x[j] = atLower, s.lb[j]
			} else {
				s.vstat[j], s.x[j] = atUpper, s.ub[j]
			}
		case lf:
			s.vstat[j], s.x[j] = atLower, s.lb[j]
		case uf:
			s.vstat[j], s.x[j] = atUpper, s.ub[j]
		default:
			s.vstat[j], s.x[j] = atFree, 0
		}
	}

	// All structural arrays are in place; subsequent addCol calls append
	// slacks and artificials after them.
	s.n = nStruct

	// Slack per row: coefficient +1, bounds from the sense.
	for i, r := range p.rows {
		var lo, hi float64
		switch r.Sense {
		case LE:
			lo, hi = 0, Inf
		case GE:
			lo, hi = math.Inf(-1), 0
		default: // EQ
			lo, hi = 0, 0
		}
		s.addCol(0, lo, hi, s.unitCol(i, 1))
	}
	s.artStart = s.n

	s.maxIter = opt.MaxIter
	if s.maxIter <= 0 {
		s.maxIter = 10000 + 20*(s.m+s.n)
		if s.maxIter > 400000 {
			s.maxIter = 400000
		}
	}
	if s.prof != nil {
		s.prof.direct(phSetup, t0)
	}
}

// resize returns buf with length n, reusing its array when it is large
// enough. The contents are whatever the array held.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// newSolver builds into s a cold solver positioned at its slack and
// artificial starting basis.
func newSolver(s *solver, p *Problem, opt Options) {
	newCore(s, p, opt)
	var t0 int64
	if s.prof != nil {
		t0 = s.prof.clock()
	}
	m := s.m
	nStruct := s.nStruct

	// Residuals with all structurals at their initial values, computed
	// in xB: row i's basic value is its residual or the residual's
	// magnitude.
	resid := s.xB
	copy(resid, s.b)
	for j := 0; j < nStruct; j++ {
		if s.x[j] != 0 {
			c := s.col(j)
			for k, i := range c.idx {
				resid[i] -= c.val[k] * s.x[j]
			}
		}
	}

	// Basis: slack where the residual fits its bounds, artificial
	// otherwise. Both give a +-1 diagonal basis matrix, whose inverse
	// is the same diagonal: every binv row starts implicit.
	for i := 0; i < m; i++ {
		sj := nStruct + i // slack of row i (newCore appends in row order)
		s.pat.set(i, i)
		if resid[i] >= s.lb[sj]-feasTol && resid[i] <= s.ub[sj]+feasTol {
			s.basis[i] = sj
			s.vstat[sj] = basic
			s.x[sj] = resid[i]
			s.diag[i] = 1
			continue
		}
		// Slack stays nonbasic at zero; artificial carries the residual.
		s.x[sj] = 0
		if s.lb[sj] == 0 {
			s.vstat[sj] = atLower
		} else {
			s.vstat[sj] = atUpper
		}
		coeff := 1.0
		if resid[i] < 0 {
			coeff = -1
		}
		aj := s.addCol(0, 0, Inf, s.unitCol(i, coeff))
		s.basis[i] = aj
		s.vstat[aj] = basic
		s.x[aj] = math.Abs(resid[i])
		s.xB[i] = s.x[aj]
		s.diag[i] = coeff
	}
	if s.prof != nil {
		s.prof.direct(phSetup, t0)
	}
}

// writeRow returns binv row r for writing, materializing it from its
// diagonal first when it is implicit.
func (s *solver) writeRow(r int) []float64 {
	row := s.binv[r]
	if row == nil {
		row = s.newRow()
		row[r] = s.diag[r]
		s.binv[r] = row
		s.rows++
	}
	return row
}

// at returns binv[r][k], reading an implicit row as its diagonal.
func (s *solver) at(r, k int) float64 {
	if row := s.binv[r]; row != nil {
		return row[k]
	}
	if k == r {
		return s.diag[r]
	}
	return 0
}

// newRow returns a zeroed row of length m, a free one when there is one.
func (s *solver) newRow() []float64 {
	if n := len(s.free); n > 0 {
		row := s.free[n-1]
		s.free = s.free[:n-1]
		return row
	}
	return make([]float64, s.m)
}

// release zeroes what the last solve wrote to the storage, so the next
// solve can reuse it: each materialized binv row is zeroed at its listed
// positions (a superset of its nonzeros) and freed, and the pattern
// words the solve set are cleared: those of the materialized rows, the
// implicit rows' diagonal words, and the column words those rows
// reach. It never clears all m·w words. It also drops the solve's
// references to the problem, context and profiler. A fresh solver
// releases nothing.
func (s *solver) release() {
	for r, row := range s.binv {
		if row == nil {
			s.pat.clearDiag(r)
			continue
		}
		s.pat.clearRow(r, row)
		s.free = append(s.free, row)
		s.binv[r] = nil
	}
	s.rows = 0
	s.nz.reset()
	s.nzR.reset()
	s.csc, s.rowFam, s.ctx, s.prof = nil, nil, nil, nil
}

// unitCol returns the column coef*e_i (coef is +1 or -1) of a slack or
// artificial of row i, as views into shared read-only storage.
func (s *solver) unitCol(i int, coef float64) colref {
	v := plusOne
	if coef < 0 {
		v = minusOne
	}
	return colref{s.rowIdx[i : i+1 : i+1], v}
}

// col returns column j of the computational form.
func (s *solver) col(j int) colref {
	if j < s.nStruct {
		return s.csc.line(j)
	}
	return s.units[j-s.nStruct]
}

// addCol appends a slack or artificial with unit column col and returns
// its index.
func (s *solver) addCol(c, lo, hi float64, col colref) int {
	j := s.n
	s.n++
	s.units = append(s.units, col)
	s.cost = append(s.cost, c)
	s.lb = append(s.lb, lo)
	s.ub = append(s.ub, hi)
	s.x = append(s.x, 0)
	s.vstat = append(s.vstat, atLower)
	return j
}

func (s *solver) run() (*Solution, error) {
	// Phase 1: drive artificials to zero.
	if s.artStart < s.n {
		ph1 := resize(s.ph1, s.n)
		s.ph1 = ph1
		clear(ph1)
		for j := s.artStart; j < s.n; j++ {
			ph1[j] = 1
		}
		st := s.iterate(ph1)
		if st == statusCanceled {
			return nil, s.ctx.Err()
		}
		if st == IterLimit {
			return s.stamp(&Solution{Status: IterLimit, Iters: s.iters}), nil
		}
		infeas := 0.0
		for j := s.artStart; j < s.n; j++ {
			infeas += s.x[j]
		}
		scale := 1.0
		for _, v := range s.b {
			if math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		if infeas > 1e-6*scale {
			return s.stamp(&Solution{Status: Infeasible, Iters: s.iters}), nil
		}
		// Pin artificials at zero for phase 2.
		for j := s.artStart; j < s.n; j++ {
			s.lb[j], s.ub[j] = 0, 0
			if s.vstat[j] != basic {
				s.vstat[j] = atLower
				s.x[j] = 0
			}
		}
	}

	// Phase 2.
	st := s.iterate(s.cost)
	if st == statusCanceled {
		return nil, s.ctx.Err()
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
	return sol, nil
}

// computeDuals fills y = cB' * Binv for the given cost vector, adding
// each basic row with nonzero cost over its listed positions: y[k] sums
// the same nonzero terms in the same row order as a dense sweep. An
// implicit row lists only its diagonal.
func (s *solver) computeDuals(cost, y []float64) {
	clear(y)
	for i, bi := range s.basis {
		cb := cost[bi]
		if cb == 0 {
			continue
		}
		row := s.binv[i]
		if row == nil {
			y[i] += cb * s.diag[i]
			continue
		}
		for wi, word := range s.pat.row(i) {
			for base := wi << 6; word != 0; word &= word - 1 {
				k := base | bits.TrailingZeros64(word)
				y[k] += cb * row[k]
			}
		}
	}
}

// dualsProfiled is computeDuals with the dual recomputation attributed
// to the pricing phase when profiling is armed.
func (s *solver) dualsProfiled(cost, y []float64) {
	if s.prof == nil {
		s.computeDuals(cost, y)
		return
	}
	t0 := s.prof.clock()
	s.computeDuals(cost, y)
	s.prof.direct(phPricing, t0)
}

// iterate runs bounded simplex iterations under the given cost vector
// until optimality, unboundedness, or the iteration budget.
func (s *solver) iterate(cost []float64) Status {
	y, w := s.y, s.w
	prof := s.prof
	s.buildEligible()

	// Duals: y = cB' * Binv, recomputed from scratch here and at
	// every refresh, and updated incrementally after each pivot via
	// y' = y + d_entering * Binv'[leaving,:] (an O(m) identity).
	s.dualsProfiled(cost, y)

	for ; s.iters < s.maxIter; s.iters++ {
		if s.iters%ctxCheckIters == 0 && s.canceled() {
			return statusCanceled
		}
		if s.iters > 0 && s.iters%refreshN == 0 {
			s.refresh()
			s.dualsProfiled(cost, y)
		}

		// Phase counts advance every iteration; wall-clock is read only
		// on sampled iterations and extrapolated (see profiler).
		var timed bool
		var t0 int64
		if prof != nil {
			timed = prof.beginIter()
			if timed {
				t0 = prof.clock()
			}
		}

		// Pricing over the eligible columns in ascending index order:
		// structural reduced costs come from one scatter over the nonzero
		// duals, unit columns are priced directly.
		s.reducedCosts(cost, y)
		entering := -1
		var dir, enterD float64
		bestViol := feasTol
		for _, j32 := range s.elig {
			j := int(j32)
			d := s.reducedCost(j, cost, y)
			var viol, dj float64
			switch s.vstat[j] {
			case atLower:
				if d < -bestViol {
					viol, dj = -d, 1
				}
			case atUpper:
				if d > bestViol {
					viol, dj = d, -1
				}
			case atFree:
				if d < -bestViol {
					viol, dj = -d, 1
				} else if d > bestViol {
					viol, dj = d, -1
				}
			}
			if dj != 0 {
				entering, dir, enterD = j, dj, d
				if s.bland {
					break // Bland: first eligible index
				}
				bestViol = viol
			}
		}
		if prof != nil {
			t0 = prof.phase(phPricing, timed, t0)
		}
		if entering == -1 {
			return Optimal
		}

		s.ftran(entering, w)
		if prof != nil {
			t0 = prof.phase(phFtran, timed, t0)
		}

		// Ratio test.
		tBest := Inf
		if !math.IsInf(s.lb[entering], -1) && !math.IsInf(s.ub[entering], 1) {
			tBest = s.ub[entering] - s.lb[entering] // bound flip
		}
		leaving := -1
		leavingToUpper := false
		for _, i32 := range s.wNZ {
			i := int(i32)
			delta := dir * w[i]
			bi := s.basis[i]
			var lim float64
			var toUpper bool
			if delta > pivTol {
				if math.IsInf(s.lb[bi], -1) {
					continue
				}
				lim = (s.xB[i] - s.lb[bi]) / delta
			} else if delta < -pivTol {
				if math.IsInf(s.ub[bi], 1) {
					continue
				}
				lim = (s.ub[bi] - s.xB[i]) / (-delta)
				toUpper = true
			} else {
				continue
			}
			if lim < 0 {
				lim = 0
			}
			take := false
			if lim < tBest-1e-10 {
				take = true
			} else if lim <= tBest+1e-10 && leaving >= 0 {
				if s.bland {
					take = s.basis[i] < s.basis[leaving]
				} else {
					take = math.Abs(w[i]) > math.Abs(w[leaving])
				}
			} else if lim <= tBest+1e-10 && leaving < 0 && lim < tBest {
				take = true
			}
			if take {
				tBest, leaving, leavingToUpper = lim, i, toUpper
			}
		}
		if prof != nil {
			t0 = prof.phase(phRatio, timed, t0)
		}
		if math.IsInf(tBest, 1) {
			return Unbounded
		}
		t := tBest

		s.step(entering, dir, t, w)
		if t < degTol {
			s.degenCount++
			s.degenTotal++
			if s.degenCount > s.degenRunMax {
				s.degenRunMax = s.degenCount
			}
			if s.degenCount > blandTrg {
				s.bland = true
			}
		} else {
			s.degenCount = 0
			s.bland = false
		}

		if leaving < 0 {
			// Bound flip of the entering variable.
			if dir > 0 {
				s.vstat[entering] = atUpper
				s.x[entering] = s.ub[entering]
			} else {
				s.vstat[entering] = atLower
				s.x[entering] = s.lb[entering]
			}
			if prof != nil {
				prof.phase(phUpdate, timed, t0)
			}
			continue
		}

		leave := atLower
		if leavingToUpper {
			leave = atUpper
		}
		s.pivot(leaving, entering, leave, w)
		// Incremental dual update: y' = y + d_entering * Binv'[leaving,:].
		if enterD != 0 {
			for q, k := range s.nz.idx {
				y[k] += enterD * s.nzVal[q]
			}
		}
		if prof != nil {
			prof.phase(phUpdate, timed, t0)
			prof.pivotFamily(s.rowFamilyOf(leaving))
		}
	}
	return IterLimit
}

// reducedCosts fills rc[j] = cost[j] - y'A_j for the structural columns
// that can enter, by a scatter over the rows with y_i != 0 in ascending
// order: each column subtracts the same nonzero terms in the same row
// order as a gather down the column. Skipped terms have y_i = 0, which
// can only change the sign of a zero reduced cost, never a choice.
func (s *solver) reducedCosts(cost, y []float64) {
	rc := s.rc
	copy(rc, cost[:s.nStruct])
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		r := s.priceRows.line(i)
		val := r.val[:len(r.idx)]
		for t, j := range r.idx {
			rc[j] -= yi * val[t]
		}
	}
}

// reducedCost returns column j's reduced cost after reducedCosts: the
// scattered value for a structural, computed directly for a unit column.
func (s *solver) reducedCost(j int, cost, y []float64) float64 {
	if j < s.nStruct {
		return s.rc[j]
	}
	c := s.units[j-s.nStruct]
	return cost[j] - y[c.idx[0]]*c.val[0]
}

// buildEligible lists, ascending, the nonbasic columns with lb != ub.
func (s *solver) buildEligible() {
	s.elig = s.elig[:0]
	for j := 0; j < s.n; j++ {
		if s.vstat[j] != basic && s.lb[j] != s.ub[j] {
			s.elig = append(s.elig, int32(j))
		}
	}
}

// ftran computes w = Binv * A[j]: for each entry i of column j in
// entry order, w[r] += binv[r][i]*v over the rows listed in binv column
// i's bits. Each w[r] adds the same nonzero products in the same order
// as a dense sweep; an implicit row r is listed only in column r. The
// nonzero rows of w are then left, ascending, in wNZ.
func (s *solver) ftran(j int, w []float64) {
	clear(w)
	c := s.col(j)
	for k, i := range c.idx {
		v := c.val[k]
		for wi, word := range s.pat.col(int(i)) {
			for base := wi << 6; word != 0; word &= word - 1 {
				r := base | bits.TrailingZeros64(word)
				if row := s.binv[r]; row != nil {
					w[r] += row[i] * v
				} else {
					w[r] += s.diag[r] * v
				}
			}
		}
	}
	nz := s.wNZ[:0]
	for r, v := range w {
		if v != 0 {
			nz = append(nz, int32(r))
		}
	}
	s.wNZ = nz
}

// step moves the entering variable by dir*t and every basic variable
// with a nonzero w entry along -dir*t*w.
func (s *solver) step(enter int, dir, t float64, w []float64) {
	if t == 0 {
		return
	}
	for _, i := range s.wNZ {
		s.xB[i] -= dir * w[i] * t
		s.x[s.basis[i]] = s.xB[i]
	}
	s.x[enter] += dir * t
}

// pivot makes enter basic in row r, given w = Binv * A[enter] and its
// pattern wNZ; the leaving variable goes nonbasic at status leave
// (atLower or atUpper) on that bound. Binv takes the rank-1 update over
// the nonzero rows of w and the nonzero positions of the scaled pivot
// row: skipped entries would subtract f*0. Those positions and values
// are left in nz/nzVal. Each updated row first lists them, a word at a
// time (the fill is nz &^ row), so the update itself runs without a
// branch. Every row the update writes is materialized first.
func (s *solver) pivot(r, enter int, leave int8, w []float64) {
	lv := s.basis[r]
	s.vstat[lv] = leave
	if leave == atUpper {
		s.x[lv] = s.ub[lv]
	} else {
		s.x[lv] = s.lb[lv]
	}
	s.vstat[enter] = basic
	s.basis[r] = enter
	s.xB[r] = s.x[enter]

	// enter leaves the eligible list; lv joins it unless fixed.
	if at, ok := slices.BinarySearch(s.elig, int32(enter)); ok {
		s.elig = slices.Delete(s.elig, at, at+1)
	}
	if s.lb[lv] != s.ub[lv] {
		at, _ := slices.BinarySearch(s.elig, int32(lv))
		s.elig = slices.Insert(s.elig, at, int32(lv))
	}

	rowR := s.writeRow(r)
	invPiv := 1 / w[r]
	nz := &s.nz
	nz.reset()
	nzVal := s.nzVal[:0]
	for wi, word := range s.pat.row(r) {
		for base := wi << 6; word != 0; word &= word - 1 {
			k := base | bits.TrailingZeros64(word)
			rowR[k] *= invPiv
			if v := rowR[k]; v != 0 {
				nz.add(k)
				nzVal = append(nzVal, v)
			}
		}
	}
	s.nzVal = nzVal
	nzIdx := nz.idx
	nzVal = nzVal[:len(nzIdx)] // lets the compiler drop nzVal's bounds check
	for _, i32 := range s.wNZ {
		i := int(i32)
		if i == r {
			continue
		}
		f := w[i]
		row := s.writeRow(i)
		s.pat.union(i, nz)
		for t, k := range nzIdx {
			row[k] -= f * nzVal[t]
		}
	}
}

// stamp copies the solver's numerical-health counters onto a solution;
// every Solution a solver returns passes through it.
func (s *solver) stamp(sol *Solution) *Solution {
	sol.Degenerate = s.degenTotal
	sol.Refreshes = s.refreshes
	return sol
}

// refresh recomputes basic values from the nonbasic solution to curb
// drift from accumulated pivot updates. xB = Binv*r is a scatter over
// r's nonzero entries in ascending order, each down the rows listed in
// its binv column's bits: every xB[i] adds the same nonzero products in the
// same order as a dense sweep of row i, and a sum that starts at +0 is
// unchanged by the ±0 terms the scatter skips (unlisted entries, r's
// zeros). Self-instrumented (every call site — periodic hygiene, warm
// install, dual reverify — is timed uniformly as the refresh phase).
func (s *solver) refresh() {
	var t0 int64
	if s.prof != nil {
		t0 = s.prof.clock()
	}
	s.refreshes++
	r := append(s.resid[:0], s.b...)
	s.resid = r
	for j := 0; j < s.n; j++ {
		if s.vstat[j] == basic || s.x[j] == 0 {
			continue
		}
		c := s.col(j)
		for k, i := range c.idx {
			r[i] -= c.val[k] * s.x[j]
		}
	}
	xB := s.xB
	clear(xB)
	for k, rk := range r {
		if rk == 0 {
			continue
		}
		for wi, word := range s.pat.col(k) {
			for base := wi << 6; word != 0; word &= word - 1 {
				i := base | bits.TrailingZeros64(word)
				if row := s.binv[i]; row != nil {
					xB[i] += row[k] * rk
				} else {
					xB[i] += s.diag[i] * rk
				}
			}
		}
	}
	for i, bi := range s.basis {
		s.x[bi] = xB[i]
	}
	if s.prof != nil {
		s.prof.direct(phRefresh, t0)
	}
}
