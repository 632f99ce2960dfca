// Package lp implements a bounded-variable revised-simplex linear
// programming solver. It is the foundation of the MILP machinery that
// replaces the commercial CPLEX solver used by the paper.
//
// Problems are stated as
//
//	minimize    c'x
//	subject to  a_i'x  (<=|=|>=)  b_i      for each row i
//	            l <= x <= u                 (bounds may be infinite)
//
// The solver works on the computational standard form Ax + s = b with one
// slack per row (slack bounds encode the row sense), uses artificial
// variables only for rows whose initial residual a feasible slack cannot
// absorb, and runs a textbook two-phase bounded simplex with an explicit
// basis inverse. The inverse is stored by rows, and a row is allocated
// only when the solve first writes it: until then it holds just its
// diagonal (a cold start's inverse is diagonal). The solver tracks where
// that inverse may be nonzero in two bitsets, one per row and one per
// column, and skips only terms with an exact-zero factor, so every
// nonzero floating-point operation runs with the same operands in the
// same order as a dense kernel: FTRAN over the column bits, pricing by a
// scatter over the nonzero duals through a row-wise copy of the columns
// that can enter, duals and the rank-1 Gauss–Jordan pivot update over
// the row bits. The update finds its fill-in a word at a time and then
// runs without a branch. The column-wise copy of the rows is built once
// per problem and shared by its CloneBounds copies, and each copy keeps
// its solver storage between its solves, zeroed at the positions and
// words a solve set. Periodic
// primal refresh keeps the numerics clean, and a Bland's-rule fallback
// guarantees termination under degeneracy.
//
// The package records nothing about its own work: it reads no tracer,
// metrics registry or flight recorder, from its options or from the
// context. A Solution carries everything a caller needs to account for
// the solve — iterations, degenerate pivots, refreshes, the warm-start
// outcome and reject reason, and the kernel profile when Options.Profile
// armed it — and the caller (internal/core) folds that into its views.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"agingfp/internal/flight"
)

// Sense is a row's comparison sense.
type Sense int

// Row senses.
const (
	LE Sense = iota // a'x <= b
	GE              // a'x >= b
	EQ              // a'x == b
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Inf is positive infinity, for unbounded variable bounds.
var Inf = math.Inf(1)

// Row is one linear constraint in sparse form.
type Row struct {
	Sense Sense
	RHS   float64
	Idx   []int
	Val   []float64
}

// Problem is a linear program under construction. The zero value is an
// empty problem ready for AddVar/AddRow.
type Problem struct {
	c      []float64
	lb, ub []float64
	rows   []Row
	// rowFam optionally names each row's constraint family (the flight
	// recorder's taxonomy); the kernel profiler attributes pivots to it.
	// Sparse: shorter than rows means the tail is unlabeled.
	rowFam []string
	// csc caches the column-wise copy of rows that every solve starts
	// from. Built on first use, shared with CloneBounds clones, and
	// dropped when a variable or row is added.
	csc atomic.Pointer[sparseLines]
	// keep is set on CloneBounds copies, which are re-solved under
	// changing bounds: each solve hands its solver storage back to
	// spare, and the next one takes it (see takeStorage).
	keep  bool
	spare atomic.Pointer[solver]
}

// columns returns the problem's column-wise (CSC) copy of its rows,
// entries of each column in row order, building it on first use.
// Concurrent first solves may each build one; the first stored wins and
// the copies are identical.
func (p *Problem) columns() *sparseLines {
	if c := p.csc.Load(); c != nil {
		return c
	}
	n := len(p.c)
	start := make([]int32, n+1)
	for _, r := range p.rows {
		for _, j := range r.Idx {
			start[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		start[j+1] += start[j]
	}
	c := &sparseLines{
		start: start,
		idx:   make([]int32, start[n]),
		val:   make([]float64, start[n]),
	}
	fill := append([]int32(nil), start[:n]...)
	for i, r := range p.rows {
		for k, j := range r.Idx {
			c.idx[fill[j]] = int32(i)
			c.val[fill[j]] = r.Val[k]
			fill[j]++
		}
	}
	if !p.csc.CompareAndSwap(nil, c) {
		return p.csc.Load()
	}
	return c
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar appends a variable with objective coefficient c and bounds
// [lb, ub], returning its index.
func (p *Problem) AddVar(c, lb, ub float64) int {
	p.c = append(p.c, c)
	p.lb = append(p.lb, lb)
	p.ub = append(p.ub, ub)
	p.csc.Store(nil)
	return len(p.c) - 1
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.c) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddRow appends the constraint sum(val[k]*x[idx[k]]) sense rhs.
// Duplicate indices within one row are rejected.
func (p *Problem) AddRow(sense Sense, rhs float64, idx []int, val []float64) error {
	if len(idx) != len(val) {
		return fmt.Errorf("lp: AddRow index/value length mismatch (%d vs %d)", len(idx), len(val))
	}
	seen := make(map[int]bool, len(idx))
	for _, j := range idx {
		if j < 0 || j >= len(p.c) {
			return fmt.Errorf("lp: AddRow variable %d out of range [0,%d)", j, len(p.c))
		}
		if seen[j] {
			return fmt.Errorf("lp: AddRow duplicate variable %d", j)
		}
		seen[j] = true
	}
	p.rows = append(p.rows, Row{
		Sense: sense,
		RHS:   rhs,
		Idx:   append([]int(nil), idx...),
		Val:   append([]float64(nil), val...),
	})
	p.csc.Store(nil)
	return nil
}

// MustAddRow is AddRow panicking on error; for construction code whose
// indices are correct by construction.
func (p *Problem) MustAddRow(sense Sense, rhs float64, idx []int, val []float64) {
	if err := p.AddRow(sense, rhs, idx, val); err != nil {
		panic(err)
	}
}

// Rows exposes the constraint rows (shared storage; callers must not
// modify). Used by diagnostics and solution checkers.
func (p *Problem) Rows() []Row { return p.rows }

// SetRowFamily labels row i with a constraint-family name (e.g. the
// flight taxonomy's "stress-budget"); the kernel profiler attributes
// simplex pivots to these labels. Unlabeled rows count as "other".
func (p *Problem) SetRowFamily(i int, family string) {
	if i < 0 || i >= len(p.rows) {
		return
	}
	for len(p.rowFam) < len(p.rows) {
		p.rowFam = append(p.rowFam, "")
	}
	p.rowFam[i] = family
}

// Obj returns variable j's objective coefficient.
func (p *Problem) Obj(j int) float64 { return p.c[j] }

// Bounds returns variable j's bounds.
func (p *Problem) Bounds(j int) (lb, ub float64) { return p.lb[j], p.ub[j] }

// SetBounds overwrites variable j's bounds; used by branch-and-bound.
func (p *Problem) SetBounds(j int, lb, ub float64) {
	p.lb[j], p.ub[j] = lb, ub
}

// CloneBounds returns a copy of the problem that shares the (immutable)
// rows, objective and column structure but owns its bound arrays, so
// branch-and-bound nodes and rounding dives can tighten bounds
// independently without rebuilding the columns per solve.
func (p *Problem) CloneBounds() *Problem {
	q := &Problem{
		c:      p.c,
		lb:     append([]float64(nil), p.lb...),
		ub:     append([]float64(nil), p.ub...),
		rows:   p.rows,
		rowFam: p.rowFam,
		keep:   true,
	}
	q.csc.Store(p.columns())
	return q
}

// takeStorage returns solver storage for one solve: the storage an
// earlier solve of this CloneBounds copy handed back, or new storage.
// The swap leaves spare empty, so a concurrent solve of the same problem
// allocates its own.
func (p *Problem) takeStorage() *solver {
	if p.keep {
		if s := p.spare.Swap(nil); s != nil {
			return s
		}
	}
	return new(solver)
}

// keepStorage hands a finished solve's storage back to a CloneBounds
// copy, released so that the next solve finds it zeroed.
func (p *Problem) keepStorage(s *solver) {
	if p.keep {
		s.release()
		p.spare.Store(s)
	}
}

// Status is a solve outcome.
type Status int

// Solve outcomes.
const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no solution.
	Infeasible
	// Unbounded: the objective decreases without bound.
	Unbounded
	// IterLimit: the iteration budget was exhausted.
	IterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is a solve result.
type Solution struct {
	Status Status
	// Obj is the objective value (meaningful for Optimal).
	Obj float64
	// X holds the variable values (meaningful for Optimal).
	X []float64
	// Iters is the total simplex iteration count across both phases
	// (primal and dual).
	Iters int
	// Basis is a snapshot of the optimal basis, set on Optimal; pass it
	// as Options.WarmStart to a later solve of a structurally identical
	// problem (e.g. after a bound or RHS change).
	Basis *Basis
	// Warm reports whether the solve reused Options.WarmStart; false
	// with a non-nil WarmStart means the snapshot was rejected and the
	// solver fell back to the cold two-phase path.
	Warm bool
	// WarmReject is why a WarmStart snapshot was rejected (dim_mismatch,
	// stale_basis, singular); empty when none was offered or it was used.
	WarmReject string
	// Degenerate counts degenerate (zero-step) pivots across the solve —
	// a numerical-health signal: a high share of degenerate pivots means
	// the solver is cycling near a degenerate vertex.
	Degenerate int
	// Refreshes counts primal refreshes / basis refactorizations the
	// solve performed (periodic hygiene plus warm-start installs).
	Refreshes int
	// Profile is the kernel profile of this one solve (Solves 1):
	// phase-attributed wall-clock, basis-health stats and pivots by
	// constraint family, in the form flight.Recorder.NoteKernel merges.
	// Non-nil only when Options.Profile was set.
	Profile *flight.Kernel
}

// Options tunes the solver.
type Options struct {
	// MaxIter bounds total simplex iterations; 0 selects a default
	// proportional to the problem size.
	MaxIter int
	// WarmStart, when non-nil, seeds the solve with a basis snapshot
	// from a previous Solution of a structurally identical problem. The
	// solver refactorizes the basis against the current data and
	// reoptimizes with the dual (or primal) simplex, skipping phase 1;
	// unusable snapshots are rejected and the solve proceeds cold, so a
	// warm start never changes the result, only the work to reach it.
	WarmStart *Basis
	// Profile enables the kernel profiler: the Solution carries a profile
	// attributing wall-clock to simplex phases. Profiler-off solves pay
	// only nil checks.
	Profile bool
	// ProfileRate is the iteration-sampling stride (time one in N
	// iterations, extrapolate); 0 selects DefaultProfileRate.
	ProfileRate int
	// ProfileClock replaces the profiler's monotonic clock (nanoseconds
	// since an arbitrary origin) — determinism tests inject a fake clock
	// so same-seed profiles are byte-identical. nil selects wall-clock.
	ProfileClock func() int64

	// prof is the per-Solve profiler instance, threaded to the solver
	// constructors so setup work is attributed too. Set by Solve.
	prof *profiler
}

// Validate rejects nonsense option values with a descriptive error.
// Zero values are valid (they select documented defaults); only values
// that cannot mean anything — negative budgets or sampling strides — are
// refused. Solve validates its options itself; Validate exists so
// configuration layers can fail fast before queueing work.
func (o Options) Validate() error {
	if o.MaxIter < 0 {
		return fmt.Errorf("lp: Options.MaxIter %d is negative (0 selects the size-proportional default)", o.MaxIter)
	}
	if o.ProfileRate < 0 {
		return fmt.Errorf("lp: Options.ProfileRate %d is negative (0 selects the default %d)", o.ProfileRate, DefaultProfileRate)
	}
	return nil
}

// Solve optimizes the problem. The problem itself is not modified.
//
// Cancellation is cooperative: the simplex loops poll ctx every
// ctxCheckIters iterations, so a canceled or expired context makes
// Solve return ctx.Err() within one check interval. A canceled solve
// returns no Solution and never corrupts warm-start state — the
// WarmStart snapshot is read-only, so it remains valid for a later
// solve.
func Solve(ctx context.Context, p *Problem, opt Options) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	var tStart int64
	if opt.Profile {
		opt.prof = newProfiler(opt.ProfileRate, opt.ProfileClock)
		tStart = opt.prof.clock()
	}
	if prof := opt.prof; prof != nil {
		t0 := prof.clock()
		err := validate(p)
		prof.direct(phSetup, t0)
		if err != nil {
			return nil, err
		}
	} else if err := validate(p); err != nil {
		return nil, err
	}
	s := p.takeStorage()
	defer p.keepStorage(s)
	reject := ""
	if opt.WarmStart != nil {
		reason := newWarmSolver(s, p, opt, opt.WarmStart)
		if reason == "" {
			s.ctx = ctx
			sol, ok, err := s.runWarm()
			if err != nil {
				return nil, err
			}
			if ok {
				sol.Warm = true
				finishSolve(opt, s, sol, tStart)
				return sol, nil
			}
			// The installed basis reoptimized inconclusively (dual budget
			// exhausted or feasible in neither sense): combinatorially it
			// had gone stale.
			reason = rejectStaleBasis
		}
		// Snapshot rejected: fall back to a cold solve that reports why.
		reject = reason
	}
	newSolver(s, p, opt)
	s.ctx = ctx
	sol, err := s.run()
	if err != nil {
		return nil, err
	}
	sol.WarmReject = reject
	finishSolve(opt, s, sol, tStart)
	return sol, nil
}

// finishSolve builds the kernel profile when the solve was profiled.
func finishSolve(opt Options, s *solver, sol *Solution, tStart int64) {
	if prof := opt.prof; prof != nil {
		sol.Profile = prof.build(s, prof.clock()-tStart)
	}
}

func validate(p *Problem) error {
	for j := range p.c {
		if p.lb[j] > p.ub[j] {
			return fmt.Errorf("lp: variable %d has lb %g > ub %g", j, p.lb[j], p.ub[j])
		}
		if math.IsNaN(p.c[j]) || math.IsNaN(p.lb[j]) || math.IsNaN(p.ub[j]) {
			return fmt.Errorf("lp: variable %d has NaN data", j)
		}
	}
	for i, r := range p.rows {
		if math.IsNaN(r.RHS) || math.IsInf(r.RHS, 0) {
			return fmt.Errorf("lp: row %d has invalid rhs %g", i, r.RHS)
		}
		for _, v := range r.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: row %d has invalid coefficient %g", i, v)
			}
		}
	}
	if len(p.rows) == 0 {
		return errors.New("lp: problem has no rows")
	}
	return nil
}
