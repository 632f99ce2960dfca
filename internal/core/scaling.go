package core

import (
	"context"
	"math/rand"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/lp"
	"agingfp/internal/milp"
	"agingfp/internal/obs"
	"agingfp/internal/timing"
)

// buildFullProblem constructs the complete delay-aware formulation (all
// contexts in one batch, Freeze mode) at the given stress budget; shared
// by the two scaling-experiment entry points so they solve the identical
// MILP.
func buildFullProblem(d *arch.Design, m0 arch.Mapping, stTarget float64, rng *rand.Rand) *batchProblem {
	res0 := timing.Analyze(d, m0)
	stress0 := arch.ComputeStress(d, m0)
	crit := timing.CriticalOps(d, m0, res0, critEpsNs)
	frozenPos := make(map[int]arch.Coord, len(crit))
	for op := range crit {
		frozenPos[op] = m0[op]
	}
	paths := timing.EnumeratePaths(d, m0, res0, timing.EnumerateOptions{
		ThresholdFrac: pathThresholdFrac,
		MaxPaths:      maxPaths,
		MaxPerContext: maxPathsPerContext,
	})
	inBatch := make(map[int]bool, d.NumContexts)
	for c := 0; c < d.NumContexts; c++ {
		inBatch[c] = true
	}
	var movable []int
	for op := 0; op < d.NumOps(); op++ {
		if _, fr := frozenPos[op]; !fr {
			movable = append(movable, op)
		}
	}
	committed := make([]float64, d.Fabric.NumPEs())
	addStress(d, committed, frozenPos)
	cands := candidateSets(d, m0, stress0, frozenPos, movable, rng)
	return buildBatch(d, m0, inBatch, frozenPos, cands, paths, stTarget, committed, res0.CPD)
}

// SolveRemapOnce solves one delay-aware re-binding MILP at a fixed
// ST_target with the production two-step scheme (LP relaxation + rounding
// dive). It exists for the E4 scaling experiment; the full flow is Remap.
func SolveRemapOnce(ctx context.Context, d *arch.Design, m0 arch.Mapping, stTarget float64, opts Options) (arch.Mapping, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	bp := buildFullProblem(d, m0, stTarget, rng)
	f := newFold(ctx, opts).run(&Stats{})
	f.open(opts.TraceParent, "core.solve_once", obs.Float("st_target", stTarget))
	asn, ok, _, err := solveBatch(ctx, bp, opts, f, rng, time.Time{}, nil, 0)
	f.close(err)
	if err != nil || !ok {
		return nil, false, err
	}
	m := m0.Clone()
	for op, pe := range asn {
		m[op] = pe
	}
	return m, true, nil
}

// SolveRemapMonolithic solves the identical formulation with plain
// branch-and-bound and no LP pre-mapping — the §V.A monolithic ILP whose
// poor scaling motivated the paper's two-step MILP. nodeCap bounds the
// search.
func SolveRemapMonolithic(ctx context.Context, d *arch.Design, m0 arch.Mapping, stTarget float64, opts Options, nodeCap int) (*milp.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	bp := buildFullProblem(d, m0, stTarget, rng)
	if bp.infeasibleReason != "" {
		return &milp.Result{Status: milp.Infeasible}, nil
	}
	return milp.Solve(ctx, &milp.Problem{LP: bp.lp, IntVars: bp.ints}, milp.Options{
		MaxNodes:    nodeCap,
		StopAtFirst: true,
	})
}

// FullProblemLP returns the LP relaxation of the single-batch
// formulation that both scaling entry points solve, for benchmarks of
// the simplex layer on a realistic assignment LP.
func FullProblemLP(d *arch.Design, m0 arch.Mapping, stTarget float64, rng *rand.Rand) *lp.Problem {
	return buildFullProblem(d, m0, stTarget, rng).lp
}
