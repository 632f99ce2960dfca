package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/flight"
	"agingfp/internal/lp"
)

// warmCache holds one LP basis snapshot per context batch, reused across
// Step-1 budget probes and Step-2.3 ST_target probes: consecutive probes
// rebuild each batch's LP with the same shape and only the stress-budget
// data changed, exactly the case the LP layer's dual-simplex warm start
// handles.
//
// The cache always records snapshots (so a finished solve can export
// its final per-batch bases for a later delta re-solve), but only
// serves them back when the solve opted into warm heuristics: the
// relaxation vertex seeds the rounding dive's pin decisions, and a
// warm-started relaxation lands on a different (equally optimal)
// vertex than a cold one, so serving trades bit-identical floorplans
// for speed while recording alone is free of that effect. A nil cache
// disables both.
type warmCache struct {
	slots []*lp.Basis
	serve bool
}

func newWarmCache(n int, serve bool) *warmCache {
	return &warmCache{slots: make([]*lp.Basis, n), serve: serve}
}

func (c *warmCache) get(i int) *lp.Basis {
	if c == nil || !c.serve || i < 0 || i >= len(c.slots) {
		return nil
	}
	return c.slots[i]
}

func (c *warmCache) put(i int, b *lp.Basis) {
	if c == nil || b == nil || i < 0 || i >= len(c.slots) {
		return
	}
	c.slots[i] = b
}

// seed preloads slots from bases exported by a prior solve, returning
// how many were installed. Only a full-length import is accepted: a
// different batch count means the batching changed and slot indices no
// longer correspond.
func (c *warmCache) seed(bases []*lp.Basis) int {
	if c == nil || len(bases) != len(c.slots) {
		return 0
	}
	n := 0
	for i, b := range bases {
		if b != nil {
			c.slots[i] = b
			n++
		}
	}
	return n
}

// export returns a copy of the recorded per-batch snapshots.
func (c *warmCache) export() []*lp.Basis {
	if c == nil {
		return nil
	}
	return append([]*lp.Basis(nil), c.slots...)
}

// solveBatch runs the paper's two-step MILP scheme on one batch problem:
//
//	Step A: solve the LP relaxation (OP_ijk in [0,1]);
//	Step B/C: iterative LP rounding with op-level diving — bulk pre-map
//	        assignments whose LP value clears roundThreshold (capacity
//	        rows guarantee at most one op can exceed 0.95 per PE-context
//	        slot, so pre-mapping never double-books a PE), pin the
//	        best-scored op otherwise, and backjump on infeasibility.
//
// Returns the per-op PE choice, or ok=false if infeasible at this
// budget, plus an outcome classification for the flight journal:
// "solved", "construction" (buildBatch proved infeasibility),
// "lp_infeasible" (the relaxation itself), "iterlimit" (relaxation
// budget exhausted), "timeout" (probe deadline), or "dive_failed"
// (relaxation feasible but no integral completion found). See
// DESIGN.md §4b.4 for how this implements the paper's LP-relax /
// round>0.95 / residual-ILP loop.
func solveBatch(ctx context.Context, bp *batchProblem, opts Options, f *fold, rng *rand.Rand, deadline time.Time, cache *warmCache, slot int) (map[int]arch.Coord, bool, string, error) {
	if bp.infeasibleReason != "" {
		return nil, false, "construction", nil
	}
	if len(bp.movable) == 0 {
		return map[int]arch.Coord{}, true, "solved", nil
	}

	// Step A: LP relaxation, warm-started from the previous probe's
	// optimal basis for this batch when one is cached.
	rel, err := f.relax(ctx, bp.lp, cache.get(slot))
	if err != nil {
		return nil, false, "", fmt.Errorf("core: relaxation: %w", err)
	}
	switch rel.Status {
	case lp.Infeasible:
		return nil, false, "lp_infeasible", nil
	case lp.Optimal:
		cache.put(slot, rel.Basis)
	case lp.IterLimit:
		// The relaxation ran out of iteration budget: report "no solution
		// at this budget" rather than a hard error, so Algorithm 1's
		// outer loop relaxes ST_target by Delta and retries instead of
		// aborting the whole flow (the same convention as a probe
		// timeout).
		return nil, false, "iterlimit", nil
	default:
		return nil, false, "", fmt.Errorf("core: relaxation ended %v", rel.Status)
	}

	// A few randomized restarts recover from unlucky pin orders; a
	// persistent dive failure is treated as infeasibility at this
	// budget, and the caller relaxes ST_target by Delta exactly as
	// Algorithm 1 does when "solution does not exist".
	restarts := 4
	for r := 0; r < restarts; r++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, false, "timeout", nil
		}
		var warm *lp.Basis
		if opts.WarmHeuristics {
			warm = rel.Basis
		}
		f.dive(r, len(bp.movable))
		asn, ok, frac, err := roundingDive(ctx, bp, rel.X, warm, f, rng, r > 0, deadline, slot, r)
		if err != nil {
			return nil, false, "", err
		}
		if ok {
			return asn, true, "solved", nil
		}
		if frac < 0.5 {
			// The dive failed far from completion: the budget is most
			// likely genuinely infeasible, so restarts would only burn
			// LP solves.
			break
		}
	}
	return nil, false, "dive_failed", nil
}

// softFix records a tentative op pin for backjumping.
type softFix struct {
	op   int
	cand int
	// saved bounds of the op's variables before pinning.
	savedLo, savedHi []float64
}

// roundingDive pins ops one round at a time, re-solving the LP between
// rounds. A non-nil rootBasis opts the dive into warm-started re-solves:
// each round only pins variable bounds on a fixed row set, so every
// re-solve can reuse the last optimal basis (initially the relaxation's),
// with the LP layer falling back to a cold solve whenever a snapshot goes
// stale. A nil rootBasis keeps every solve cold — warm-started re-solves
// land on different (equally optimal) vertices, the pin heuristic reads
// the vertex, and callers default to reproducible cold floorplans (see
// Options.WarmHeuristics).
//
// batch and restart locate the dive in the flight journal: one "dive"
// event per call, which ends the core.dive span the caller opened, and
// one "premap" event per pin round.
func roundingDive(ctx context.Context, bp *batchProblem, rootX []float64, rootBasis *lp.Basis, f *fold, rng *rand.Rand, perturb bool, deadline time.Time, batch, restart int) (asnOut map[int]arch.Coord, okOut bool, fracOut float64, errOut error) {
	prob := bp.lp.CloneBounds()
	useWarm := rootBasis != nil
	warm := rootBasis
	decided := make(map[int]int, len(bp.movable)) // op -> candidate index
	var tentative []softFix
	x := rootX
	frac := func() float64 { return float64(len(decided)) / float64(len(bp.movable)) }

	defer func() {
		status := "failed"
		if okOut {
			status = "integral"
		}
		f.event(flight.Event{Kind: flight.KindDive,
			Batch: batch, Round: restart, Status: status, N: len(decided)})
	}()

	// Every pin is recorded so an infeasible LP can backjump through it —
	// including the bulk 0.95 pre-mappings, whose greediness is otherwise
	// unrecoverable.
	pin := func(op, cand int) {
		vars := bp.varOf[op]
		fx := softFix{op: op, cand: cand,
			savedLo: make([]float64, len(vars)),
			savedHi: make([]float64, len(vars))}
		for i, v := range vars {
			fx.savedLo[i], fx.savedHi[i] = prob.Bounds(v)
			if i == cand {
				prob.SetBounds(v, 1, 1)
			} else {
				prob.SetBounds(v, 0, 0)
			}
		}
		decided[op] = cand
		tentative = append(tentative, fx)
	}

	// Each outer round: (1) make the pinned LP feasible, backjumping as
	// needed; (2) pin at least one more op from the fresh LP solution.
	// Every round either pins or retracts, and retraction permanently
	// forbids a candidate, so the loop terminates; the budget below cuts
	// hopeless instances short.
	maxLP := 60 + 3*len(bp.movable)
	lpBudget := maxLP
	fresh := true // rootX is valid for the unpinned problem
	for {
		for !fresh {
			if lpBudget--; lpBudget < 0 {
				return nil, false, frac(), nil
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return nil, false, frac(), nil
			}
			sol, err := f.solve(ctx, prob, warm)
			if err != nil {
				return nil, false, frac(), err
			}
			if sol.Status == lp.Optimal {
				x = sol.X
				if useWarm {
					warm = sol.Basis
				}
				fresh = true
				break
			}
			if !backjump(bp, prob, &tentative, decided) {
				return nil, false, frac(), nil // infeasible at this budget
			}
			f.backjump()
		}
		if len(decided) == len(bp.movable) {
			// All ops pinned under a feasible LP: done.
			asn, ok, err := extractDecided(bp, decided)
			return asn, ok, 1, err
		}

		// Pin round: bulk pre-mapping at the paper's threshold; when no
		// op qualifies, pin a quantum (1/8) of the undecided ops by
		// score (see orderBonus for the ordering rationale), with random
		// perturbation on restarts. Quantum pinning keeps the LP-solve
		// count O(log) instead of O(ops) on large batches; same-round
		// pins avoid sharing a PE so they cannot conflict trivially.
		progress := false
		bulkPins := 0
		type cand struct {
			op, cand, pe int
			score        float64
		}
		var scored []cand
		for _, op := range bp.movable {
			if _, done := decided[op]; done {
				continue
			}
			bestI, bestScore := -1, -1.0
			bulk := false
			for i, v := range bp.varOf[op] {
				lo, hi := prob.Bounds(v)
				if lo > hi || hi < 0.5 {
					continue // forbidden by an earlier backjump
				}
				val := x[v]
				if val >= roundThreshold {
					pin(op, i)
					progress = true
					bulk = true
					bulkPins++
					break
				}
				score := val + orderBonus*bp.stressOf[op]
				if perturb {
					score += rng.Float64() * 0.5
				}
				if score > bestScore {
					bestI, bestScore = i, score
				}
			}
			if !bulk && bestI >= 0 {
				scored = append(scored, cand{op: op, cand: bestI, pe: bp.candOf[op][bestI], score: bestScore})
			}
		}
		if !progress {
			if len(scored) == 0 {
				return nil, false, frac(), nil // every candidate of some op forbidden
			}
			sort.Slice(scored, func(a, b int) bool { return scored[a].score > scored[b].score })
			// Small batches pin one op per round (precision); large
			// batches pin a quantum to keep LP-solve counts sublinear.
			quota := 1
			if len(bp.movable) >= 40 {
				quota = 1 + len(scored)/8
			}
			usedPE := map[int]bool{}
			pinned := 0
			for _, c := range scored {
				if pinned >= quota {
					break
				}
				if usedPE[c.pe] {
					continue
				}
				usedPE[c.pe] = true
				pin(c.op, c.cand)
				pinned++
			}
		}
		f.event(flight.Event{Kind: flight.KindPremap,
			Batch: batch, Round: restart, N: bulkPins, M: len(bp.movable) - len(decided)})
		fresh = false
	}
}

// backjump retracts the most recent tentative pin, restoring its op's
// variable bounds and forbidding the failed candidate. Returns false when
// there is nothing to retract.
func backjump(bp *batchProblem, prob *lp.Problem, tentative *[]softFix, decided map[int]int) bool {
	n := len(*tentative)
	if n == 0 {
		return false
	}
	fx := (*tentative)[n-1]
	*tentative = (*tentative)[:n-1]
	vars := bp.varOf[fx.op]
	for i, v := range vars {
		prob.SetBounds(v, fx.savedLo[i], fx.savedHi[i])
	}
	// Forbid the candidate that led to infeasibility.
	prob.SetBounds(vars[fx.cand], 0, 0)
	delete(decided, fx.op)
	return true
}

func extractDecided(bp *batchProblem, decided map[int]int) (map[int]arch.Coord, bool, error) {
	out := make(map[int]arch.Coord, len(decided))
	for op, cand := range decided {
		out[op] = bp.fab.CoordOf(bp.candOf[op][cand])
	}
	return out, true, nil
}

// extractAssignment reads the chosen PE of each movable op from a MILP
// solution vector.
func extractAssignment(bp *batchProblem, x []float64) (map[int]arch.Coord, bool, error) {
	out := make(map[int]arch.Coord, len(bp.movable))
	for _, op := range bp.movable {
		chosen := -1
		for i, v := range bp.varOf[op] {
			if x[v] > 0.5 {
				if chosen >= 0 {
					return nil, false, fmt.Errorf("core: op %d assigned twice", op)
				}
				chosen = i
			}
		}
		if chosen < 0 {
			return nil, false, fmt.Errorf("core: op %d unassigned", op)
		}
		out[op] = bp.fab.CoordOf(bp.candOf[op][chosen])
	}
	return out, true, nil
}

// constructionFamily maps buildBatch's infeasibleReason strings onto the
// flight recorder's constraint families.
func constructionFamily(reason string) string {
	if reason == "committed stress alone exceeds ST_target" {
		return flight.FamilyStressBudget
	}
	// Both remaining construction bail-outs ("frozen path exceeds its
	// wire budget", "path budget exhausted by fixed arcs") are wire-budget
	// rows over their path-delay limit.
	return flight.FamilyPathDelay
}

// diagRelaxedRHS stands in for an unbounded right-hand side in the
// diagnosis re-solves: lp.validate rejects infinities, and any batch row's
// meaningful RHS is orders of magnitude below it.
const diagRelaxedRHS = 1e9

// diagnoseInfeasible attributes an infeasible batch relaxation to a
// constraint family by re-solving with families relaxed cumulatively in
// severity order: feasible with the stress budgets lifted means the
// stress budget was the blocker; feasible only with the wire budgets
// lifted too means path delay; otherwise the assignment/capacity
// structure itself admits no solution. The diagnosis solves bypass the
// fold, so they stay out of every view of the run's LP effort.
func diagnoseInfeasible(ctx context.Context, bp *batchProblem) string {
	feasibleWithout := func(rowSets ...[]int) bool {
		relaxed := make(map[int]bool)
		for _, rows := range rowSets {
			for _, i := range rows {
				relaxed[i] = true
			}
		}
		q := lp.NewProblem()
		for j := 0; j < bp.lp.NumVars(); j++ {
			lb, ub := bp.lp.Bounds(j)
			q.AddVar(bp.lp.Obj(j), lb, ub)
		}
		for i, r := range bp.lp.Rows() {
			rhs := r.RHS
			if relaxed[i] {
				rhs = diagRelaxedRHS // stress/path rows are all <=
			}
			q.MustAddRow(r.Sense, rhs, r.Idx, r.Val)
		}
		sol, err := lp.Solve(ctx, q, lp.Options{})
		return err == nil && sol.Status == lp.Optimal
	}
	if len(bp.stressRows) > 0 && feasibleWithout(bp.stressRows) {
		return flight.FamilyStressBudget
	}
	if len(bp.pathRows) > 0 && feasibleWithout(bp.stressRows, bp.pathRows) {
		return flight.FamilyPathDelay
	}
	return flight.FamilyAssignment
}

// batches partitions contexts [0, C) into chunks of size per (0 or >= C
// means a single batch).
func batches(numContexts, per int) [][]int {
	if per <= 0 || per >= numContexts {
		all := make([]int, numContexts)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	var out [][]int
	for at := 0; at < numContexts; at += per {
		end := at + per
		if end > numContexts {
			end = numContexts
		}
		b := make([]int, 0, end-at)
		for c := at; c < end; c++ {
			b = append(b, c)
		}
		out = append(out, b)
	}
	return out
}

// contextBatches splits the design's contexts into the batches Step 2.3
// solves one joint MILP each, autoBatch(d, 250) contexts per batch. The
// stress budget rows chain across batches, so the final floorplan still
// satisfies ST_target globally.
func contextBatches(d *arch.Design) [][]int {
	return batches(d.NumContexts, autoBatch(d, 250))
}

// autoBatch picks a contexts-per-batch keeping the expected simplex
// basis below roughly maxRows rows. Per context the formulation carries
// an assignment row per op, a capacity row per PE, and roughly 1.5
// distance/path rows per op; the stress rows are shared. Measured
// kernel cost, from a traced table1-large run (B25, B2, B5; m <= 404,
// ~118 pivots per LP) on a 2-vCPU Xeon VM: ~33 µs per pivot, of which
// pricing (the reduced-cost scan) is 40%, ftran 21%, the binv update
// (over the pivot row's nonzeros) 20% and per-solve setup 15%. Only
// setup's zeroed m×m binv and the dual recomputation grow with m^2, so
// the row cap is a guard rail for memory and setup, not a derived
// optimum.
func autoBatch(d *arch.Design, maxRows int) int {
	opsPerCtx := float64(d.NumOps()) / float64(d.NumContexts)
	perCtx := opsPerCtx*2.5 + float64(d.Fabric.NumPEs())
	fixedRows := float64(d.Fabric.NumPEs())
	per := int((float64(maxRows) - fixedRows) / math.Max(perCtx, 1))
	if per < 1 {
		per = 1
	}
	if per > d.NumContexts {
		per = d.NumContexts
	}
	return per
}

// orderBonus weights the stress-rate term in the dive's pin ordering.
// It is negative: low-stress operations sit on tightly-budgeted chained
// paths (their wire slack, not their stress, is the scarce resource), so
// they are pinned first while the fabric is open, and the heavy but
// positionally flexible DMU ops fill in afterwards. Determined empirically
// (see TestOrderingSweep); exposed as a variable for experimentation.
var orderBonus = -0.3
