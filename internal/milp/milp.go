// Package milp solves mixed-integer linear programs by LP-based branch
// and bound over the simplex solver in internal/lp.
//
// Production never calls it: the floorplanner uses the paper's two-step
// LP-relax/round/residual-ILP scheme instead. It exists for the E4
// ablation, which runs the monolithic ILP of §V.A on the same
// formulation to show why that scheme is needed.
//
// The solver is a depth-first branch-and-bound with most-fractional
// branching, nearest-value child ordering, bound-based pruning against
// the incumbent, and a node budget. Each child relaxation is reoptimized
// from its parent's basis. For pure feasibility problems (zero
// objective), the search stops at the first integral solution.
package milp

import (
	"context"
	"fmt"
	"math"

	"agingfp/internal/lp"
)

// Problem is a MILP: an LP plus a set of integer-constrained variables.
type Problem struct {
	// LP holds the constraints, bounds and objective.
	LP *lp.Problem
	// IntVars lists the variables constrained to integer values.
	IntVars []int
}

// Options tunes the search.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes (LP solves);
	// 0 selects 100000.
	MaxNodes int
	// StopAtFirst stops at the first integer-feasible solution even for
	// problems with a non-zero objective.
	StopAtFirst bool
}

// Validate rejects nonsense option values with a descriptive error.
// Zero values are valid (they select documented defaults).
func (o Options) Validate() error {
	if o.MaxNodes < 0 {
		return fmt.Errorf("milp: Options.MaxNodes %d is negative (0 selects the default 100000)", o.MaxNodes)
	}
	return nil
}

// intTol is the integrality tolerance.
const intTol = 1e-6

// Status is a search outcome. Outcomes are ordered from strongest to
// weakest claim: Optimal proves, Feasible exhibits, NodeLimit and
// Canceled report an interrupted search (with or without an incumbent —
// check Result.X), Infeasible refutes.
type Status int

// Search outcomes.
const (
	// Optimal: proven optimal integer solution (or first feasible, for
	// feasibility problems / StopAtFirst).
	Optimal Status = iota
	// Feasible: budget exhausted with an incumbent in hand. The
	// incumbent is integer-feasible but not proven optimal.
	Feasible
	// NodeLimit: the node budget was exhausted with no incumbent. This
	// is NOT a proof of infeasibility — a larger budget may still find a
	// solution — and callers must not treat it as one.
	NodeLimit
	// Canceled: the context was canceled or its deadline passed
	// mid-search. The Result carries whatever was found so far; Solve
	// additionally returns ctx.Err().
	Canceled
	// Infeasible: the search tree was exhausted; no integer solution
	// exists.
	Infeasible
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case NodeLimit:
		return "node-limit"
	case Canceled:
		return "canceled"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of a solve.
type Result struct {
	Status Status
	// Obj and X describe the incumbent (valid for Optimal/Feasible).
	Obj float64
	X   []float64
	// Nodes is the number of LP relaxations solved.
	Nodes int
	// RootObj is the root LP relaxation objective (a lower bound),
	// NaN if the root was infeasible.
	RootObj float64
	// SimplexIters is the total simplex iteration count over all node
	// relaxations (primal and dual phases).
	SimplexIters int
	// WarmStarts / WarmStartRejects count child relaxations that reused
	// the parent's basis versus snapshots the LP layer rejected (falling
	// back to a cold solve).
	WarmStarts, WarmStartRejects int
}

type searcher struct {
	ctx      context.Context
	base     *lp.Problem
	intVars  []int
	opts     Options
	pureFeas bool

	incumbent []float64
	incObj    float64
	hasInc    bool

	res Result // counters accumulated as the search runs
}

// Solve runs branch and bound. The problem's bound arrays are cloned; the
// caller's problem is not modified.
//
// Cancellation is cooperative: the search polls ctx at every node and
// the node relaxations poll it inside their simplex loops, so a
// canceled or expired context makes Solve return promptly with a
// partial Result (Status Canceled, node/iteration counts so far, and
// the incumbent if one was found) alongside ctx.Err().
func Solve(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 100000
	}
	s := &searcher{
		ctx:      ctx,
		base:     p.LP.CloneBounds(),
		intVars:  p.IntVars,
		opts:     opts,
		pureFeas: true,
		incObj:   math.Inf(1),
		res:      Result{RootObj: math.NaN()},
	}
	for j := 0; j < p.LP.NumVars(); j++ {
		if p.LP.Obj(j) != 0 {
			s.pureFeas = false
			break
		}
	}

	st, err := s.dfs(0, nil)
	if err != nil && st != searchCanceled {
		return nil, err
	}
	res := s.res
	if s.hasInc {
		res.Obj, res.X = s.incObj, s.incumbent
	}
	switch {
	case st == searchCanceled:
		res.Status = Canceled
	case s.hasInc && (st == searchDone || st == searchExhausted):
		res.Status = Optimal
	case s.hasInc:
		res.Status = Feasible
	case st == searchExhausted:
		res.Status = Infeasible
	default:
		res.Status = NodeLimit
	}
	return &res, err
}

type searchState int

const (
	searchExhausted searchState = iota // subtree fully explored
	searchDone                         // stopping condition met (first feasible)
	searchBudget                       // node budget hit
	searchCanceled                     // context canceled or deadline passed
)

// dfs explores one node. warm is the parent node's optimal basis (nil at
// the root): a child differs from its parent by one bound change, so the
// relaxation is reoptimized by the LP layer's dual simplex instead of a
// cold phase-1 restart.
func (s *searcher) dfs(depth int, warm *lp.Basis) (searchState, error) {
	if err := s.ctx.Err(); err != nil {
		return searchCanceled, err
	}
	if s.res.Nodes >= s.opts.MaxNodes {
		return searchBudget, nil
	}
	s.res.Nodes++
	sol, err := lp.Solve(s.ctx, s.base, lp.Options{WarmStart: warm})
	if err != nil {
		// A mid-relaxation cancellation surfaces as the context's error;
		// anything else is a genuine solver failure.
		if cerr := s.ctx.Err(); cerr != nil {
			return searchCanceled, cerr
		}
		return searchExhausted, err
	}
	s.res.SimplexIters += sol.Iters
	if warm != nil {
		if sol.Warm {
			s.res.WarmStarts++
		} else {
			s.res.WarmStartRejects++
		}
	}
	if depth == 0 && sol.Status == lp.Optimal {
		s.res.RootObj = sol.Obj
	}
	switch sol.Status {
	case lp.Infeasible:
		return searchExhausted, nil
	case lp.Unbounded:
		return searchExhausted, fmt.Errorf("milp: LP relaxation unbounded at depth %d", depth)
	case lp.IterLimit:
		// Treat as unexplorable; conservative (cannot prune optimality
		// claims below, so report budget).
		return searchBudget, nil
	}
	if s.hasInc && sol.Obj >= s.incObj-1e-9 {
		return searchExhausted, nil // bound-dominated
	}

	// Branch on the most fractional variable.
	branch, score := -1, 0.0
	for _, j := range s.intVars {
		f := math.Abs(sol.X[j] - math.Round(sol.X[j]))
		if f > intTol && f > score {
			branch, score = j, f
		}
	}
	if branch == -1 {
		// Integral: new incumbent.
		s.incumbent = roundInts(sol.X, s.intVars)
		s.incObj = sol.Obj
		s.hasInc = true
		if s.pureFeas || s.opts.StopAtFirst {
			return searchDone, nil
		}
		return searchExhausted, nil
	}

	// Nearest-value child first.
	v := sol.X[branch]
	lo, hi := s.base.Bounds(branch)
	floorV, ceilV := math.Floor(v), math.Ceil(v)
	type child struct{ lb, ub float64 }
	order := []child{{lo, floorV}, {ceilV, hi}}
	if v-floorV > 0.5 {
		order[0], order[1] = order[1], order[0]
	}
	for _, ch := range order {
		if ch.lb > ch.ub {
			continue
		}
		s.base.SetBounds(branch, ch.lb, ch.ub)
		st, err := s.dfs(depth+1, sol.Basis)
		s.base.SetBounds(branch, lo, hi)
		if err != nil {
			return st, err
		}
		if st == searchDone || st == searchBudget {
			return st, nil
		}
	}
	return searchExhausted, nil
}

// roundInts snaps integer variables to the nearest integer, returning a
// copy.
func roundInts(x []float64, intVars []int) []float64 {
	out := append([]float64(nil), x...)
	for _, j := range intVars {
		out[j] = math.Round(out[j])
	}
	return out
}
