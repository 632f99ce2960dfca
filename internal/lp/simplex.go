package lp

import (
	"context"
	"math"
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

type colref struct {
	idx []int32
	val []float64
}

type solver struct {
	m       int // rows
	nStruct int // structural variables
	n       int // total variables (struct + slacks + artificials)

	cols []colref
	cost []float64 // phase-2 objective, extended with zeros
	lb   []float64
	ub   []float64
	b    []float64

	basis []int  // row -> basic variable
	vstat []int8 // variable -> status
	x     []float64
	xB    []float64
	binv  [][]float64

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

// newCore builds the solver skeleton shared by the cold and warm paths:
// structural columns, costs, bounds, RHS, default nonbasic statuses, and
// one slack per row (indices nStruct..nStruct+m-1, in row order). No
// basis is installed; artStart is provisionally n (no artificials).
func newCore(p *Problem, opt Options) *solver {
	var t0 int64
	if opt.prof != nil {
		t0 = opt.prof.clock()
	}
	m := len(p.rows)
	nStruct := len(p.c)
	s := &solver{
		m:       m,
		nStruct: nStruct,
		prof:    opt.prof,
		rowFam:  p.rowFam,
	}

	// Structural columns from the row-wise input.
	s.cols = make([]colref, nStruct, nStruct+2*m)
	for i, r := range p.rows {
		for k, j := range r.Idx {
			s.cols[j].idx = append(s.cols[j].idx, int32(i))
			s.cols[j].val = append(s.cols[j].val, r.Val[k])
		}
	}
	s.cost = append([]float64(nil), p.c...)
	s.lb = append([]float64(nil), p.lb...)
	s.ub = append([]float64(nil), p.ub...)
	s.b = make([]float64, m)
	for i, r := range p.rows {
		s.b[i] = r.RHS
	}

	// Initial nonbasic statuses and values for structurals: the finite
	// bound nearest zero, or zero for free variables.
	s.x = make([]float64, nStruct, nStruct+2*m)
	s.vstat = make([]int8, nStruct, nStruct+2*m)
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
		j := s.addCol(0, lo, hi)
		s.cols[j].idx = append(s.cols[j].idx, int32(i))
		s.cols[j].val = append(s.cols[j].val, 1)
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
	return s
}

func newSolver(p *Problem, opt Options) *solver {
	s := newCore(p, opt)
	var t0 int64
	if s.prof != nil {
		t0 = s.prof.clock()
	}
	m := s.m
	nStruct := s.nStruct

	// Residuals with all structurals at their initial values.
	resid := append([]float64(nil), s.b...)
	for j := 0; j < nStruct; j++ {
		if s.x[j] != 0 {
			c := s.cols[j]
			for k, i := range c.idx {
				resid[i] -= c.val[k] * s.x[j]
			}
		}
	}

	// Basis: slack where the residual fits its bounds, artificial
	// otherwise. Both give a +-1 diagonal basis matrix.
	s.basis = make([]int, m)
	s.xB = make([]float64, m)
	s.binv = make([][]float64, m)
	diag := make([]float64, m)
	s.artStart = s.n
	for i := 0; i < m; i++ {
		sj := nStruct + i // slack of row i (newCore appends in row order)
		if resid[i] >= s.lb[sj]-feasTol && resid[i] <= s.ub[sj]+feasTol {
			s.basis[i] = sj
			s.vstat[sj] = basic
			s.x[sj] = resid[i]
			s.xB[i] = resid[i]
			diag[i] = 1
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
		aj := s.addCol(0, 0, Inf)
		s.cols[aj].idx = append(s.cols[aj].idx, int32(i))
		s.cols[aj].val = append(s.cols[aj].val, coeff)
		s.basis[i] = aj
		s.vstat[aj] = basic
		s.x[aj] = math.Abs(resid[i])
		s.xB[i] = s.x[aj]
		diag[i] = coeff
	}
	for i := 0; i < m; i++ {
		s.binv[i] = make([]float64, m)
		s.binv[i][i] = diag[i]
	}
	if s.prof != nil {
		s.prof.direct(phSetup, t0)
	}
	return s
}

// addCol appends a variable (column entries added by the caller) and
// returns its index.
func (s *solver) addCol(c, lo, hi float64) int {
	j := s.n
	s.n++
	s.cols = append(s.cols, colref{})
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
		ph1 := make([]float64, s.n)
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

// computeDuals fills y = cB' * Binv for the given cost vector.
func (s *solver) computeDuals(cost, y []float64) {
	m := s.m
	for k := 0; k < m; k++ {
		y[k] = 0
	}
	for i := 0; i < m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.binv[i]
		for k := 0; k < m; k++ {
			y[k] += cb * row[k]
		}
	}
}

// dualsProfiled is computeDuals with the O(m²) dual recomputation
// attributed to the pricing phase when profiling is armed.
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
	m := s.m
	y := make([]float64, m)
	w := make([]float64, m)
	prof := s.prof

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

		// Pricing.
		entering := -1
		var dir, enterD float64
		bestViol := feasTol
		for j := 0; j < s.n; j++ {
			st := s.vstat[j]
			if st == basic || s.lb[j] == s.ub[j] {
				continue
			}
			c := s.cols[j]
			d := cost[j]
			for k, i := range c.idx {
				d -= y[i] * c.val[k]
			}
			var viol, dj float64
			switch st {
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

		// FTRAN: w = Binv * A[entering].
		for i := 0; i < m; i++ {
			w[i] = 0
		}
		ec := s.cols[entering]
		for k, i := range ec.idx {
			v := ec.val[k]
			for r := 0; r < m; r++ {
				w[r] += s.binv[r][int(i)] * v
			}
		}
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
		for i := 0; i < m; i++ {
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

		// Apply the step.
		if t != 0 {
			for i := 0; i < m; i++ {
				if w[i] != 0 {
					s.xB[i] -= dir * w[i] * t
					s.x[s.basis[i]] = s.xB[i]
				}
			}
			s.x[entering] += dir * t
		}
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
			if s.bland && s.degenCount == 0 {
				s.bland = false
			}
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

		// Pivot: entering replaces basis[leaving].
		lv := s.basis[leaving]
		if leavingToUpper {
			s.vstat[lv] = atUpper
			s.x[lv] = s.ub[lv]
		} else {
			s.vstat[lv] = atLower
			s.x[lv] = s.lb[lv]
		}
		s.vstat[entering] = basic
		s.basis[leaving] = entering
		s.xB[leaving] = s.x[entering]

		piv := w[leaving]
		rowL := s.binv[leaving]
		invPiv := 1 / piv
		for k := 0; k < m; k++ {
			rowL[k] *= invPiv
		}
		for i := 0; i < m; i++ {
			if i == leaving {
				continue
			}
			f := w[i]
			if f == 0 {
				continue
			}
			row := s.binv[i]
			for k := 0; k < m; k++ {
				row[k] -= f * rowL[k]
			}
		}
		// Incremental dual update: y' = y + d_entering * Binv'[leaving,:].
		if enterD != 0 {
			for k := 0; k < m; k++ {
				y[k] += enterD * rowL[k]
			}
		}
		if prof != nil {
			prof.phase(phUpdate, timed, t0)
			prof.pivotFamily(s.rowFamilyOf(leaving))
		}
	}
	return IterLimit
}

// stamp copies the solver's numerical-health counters onto a solution;
// every Solution a solver returns passes through it.
func (s *solver) stamp(sol *Solution) *Solution {
	sol.Degenerate = s.degenTotal
	sol.Refreshes = s.refreshes
	return sol
}

// refresh recomputes basic values from the nonbasic solution to curb
// drift from accumulated pivot updates. Self-instrumented (every call
// site — periodic hygiene, warm install, dual reverify — is timed
// uniformly as the refresh phase).
func (s *solver) refresh() {
	var t0 int64
	if s.prof != nil {
		t0 = s.prof.clock()
	}
	s.refreshes++
	r := append([]float64(nil), s.b...)
	for j := 0; j < s.n; j++ {
		if s.vstat[j] == basic || s.x[j] == 0 {
			continue
		}
		c := s.cols[j]
		for k, i := range c.idx {
			r[i] -= c.val[k] * s.x[j]
		}
	}
	for i := 0; i < s.m; i++ {
		v := 0.0
		row := s.binv[i]
		for k := 0; k < s.m; k++ {
			v += row[k] * r[k]
		}
		s.xB[i] = v
		s.x[s.basis[i]] = v
	}
	if s.prof != nil {
		s.prof.direct(phRefresh, t0)
	}
}
