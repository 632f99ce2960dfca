package core

import (
	"math/rand"
	"sort"

	"agingfp/internal/arch"
	"agingfp/internal/flight"
	"agingfp/internal/lp"
	"agingfp/internal/timing"
)

// candidateSets picks each movable op's candidate PEs: the op's original
// PE, its nearest PEs (cheap wires), the fabric's least-stressed PEs
// (spreading targets), and a random fill (connectivity of the implied
// bipartite graph), excluding PEs occupied by frozen ops of the same
// context.
//
// The sets aim at the full fabric: simplex cost scales with constraint
// rows, not candidate columns, so full sets are affordable even at
// 16x16. They are full whenever the op's context has no frozen op. When
// it has one, the set can never reach n, so the random fill spends all
// 8n draws and may still miss an allowed PE (at seed 1 on the baseline
// placement: one op's PE on B2, two on B5, one on B25). The draws are
// kept because every later random choice of the flow follows them, and
// a deterministic full set measurably changes floorplans (DESIGN.md §4b).
func candidateSets(d *arch.Design, m arch.Mapping, stress0 arch.StressMap,
	frozenPos map[int]arch.Coord, movable []int, rng *rand.Rand) map[int][]int {

	f := d.Fabric
	n := f.NumPEs()

	// Frozen occupancy per context.
	frozenAt := make(map[[3]int]bool, len(frozenPos))
	for op, pe := range frozenPos {
		frozenAt[[3]int{d.Ctx[op], pe.X, pe.Y}] = true
	}

	// Global least-stressed PEs (from the original stress map).
	byStress := make([]int, n)
	for i := range byStress {
		byStress[i] = i
	}
	sort.Slice(byStress, func(a, b int) bool {
		ca, cb := f.CoordOf(byStress[a]), f.CoordOf(byStress[b])
		sa, sb := stress0.At(ca), stress0.At(cb)
		if sa != sb {
			return sa < sb
		}
		return byStress[a] < byStress[b]
	})

	out := make(map[int][]int, len(movable))
	for _, op := range movable {
		c := d.Ctx[op]
		ok := func(pe int) bool {
			co := f.CoordOf(pe)
			return !frozenAt[[3]int{c, co.X, co.Y}]
		}
		set := make(map[int]bool, n)
		add := func(pe int) {
			if len(set) < n && ok(pe) {
				set[pe] = true
			}
		}
		add(f.Index(m[op]))
		// Nearest PEs to the original location.
		near := make([]int, n)
		for i := range near {
			near[i] = i
		}
		orig := m[op]
		sort.Slice(near, func(a, b int) bool {
			da, db := f.CoordOf(near[a]).Dist(orig), f.CoordOf(near[b]).Dist(orig)
			if da != db {
				return da < db
			}
			return near[a] < near[b]
		})
		for i := 0; i < len(near) && len(set) < 1+n/3; i++ {
			add(near[i])
		}
		// Least-stressed PEs.
		for i := 0; i < n && len(set) < 1+2*n/3; i++ {
			add(byStress[i])
		}
		// Random fill.
		for guard := 0; len(set) < n && guard < 8*n; guard++ {
			add(rng.Intn(n))
		}
		cands := make([]int, 0, len(set))
		for pe := range set {
			cands = append(cands, pe)
		}
		sort.Ints(cands)
		out[op] = cands
	}
	return out
}

// batchProblem is the assignment MILP for one batch of contexts.
type batchProblem struct {
	lp       *lp.Problem
	fab      arch.Fabric
	ints     []int           // binary assignment variables
	movable  []int           // ops being re-bound in this batch
	candOf   map[int][]int   // op -> candidate PE linear indices
	varOf    map[int][]int   // op -> variable ids, parallel to candOf
	stressOf map[int]float64 // op -> stress rate (dive ordering heuristic)
	// stressRows and pathRows index the accumulated-stress and wire-budget
	// constraint rows, so an infeasible relaxation can be re-solved with
	// one family relaxed at a time to attribute the failure (flight
	// recorder's infeasibility digest).
	stressRows []int
	pathRows   []int
	// infeasibleReason is non-empty when construction itself proved the
	// batch infeasible (e.g. a frozen-only path over budget).
	infeasibleReason string
}

// addRow appends one constraint and labels its family, so the kernel
// profiler can attribute simplex pivots to the formulation rows that
// drive them.
func (bp *batchProblem) addRow(family string, sense lp.Sense, rhs float64, idx []int, val []float64) {
	row := bp.lp.NumRows()
	bp.lp.MustAddRow(sense, rhs, idx, val)
	bp.lp.SetRowFamily(row, family)
}

// buildBatch constructs formulation (3) for the ops of the given contexts:
//
//	assignment equalities      sum_k OP_ijk = 1
//	PE capacity                sum_j OP_ijk <= 1        (per context, PE)
//	accumulated stress         sum OP_ijk * ST(op) <= ST_target - committed
//	path wire-length budgets   sum wirelen <= (CPD - sum PEdelay)/unitWire
//
// mCur holds current positions (earlier batches already re-bound); ops
// outside the batch and frozen ops enter the path constraints as
// constants. committed[pe] is stress already pinned at each PE (frozen
// ops everywhere + ops of earlier batches).
func buildBatch(d *arch.Design, mCur arch.Mapping, inBatch map[int]bool,
	frozenPos map[int]arch.Coord, cands map[int][]int, paths []*timing.Path,
	stTarget float64, committed []float64, cpd float64) *batchProblem {

	f := d.Fabric
	bp := &batchProblem{
		lp:       lp.NewProblem(),
		fab:      f,
		candOf:   cands,
		varOf:    make(map[int][]int),
		stressOf: make(map[int]float64),
	}

	// Movable ops: batch ops that are not frozen.
	for op := 0; op < d.NumOps(); op++ {
		if !inBatch[d.Ctx[op]] {
			continue
		}
		if _, fr := frozenPos[op]; fr {
			continue
		}
		bp.movable = append(bp.movable, op)
		bp.stressOf[op] = d.StressRate(op)
	}
	movableSet := make(map[int]bool, len(bp.movable))
	for _, op := range bp.movable {
		movableSet[op] = true
	}

	// Assignment variables and equalities.
	for _, op := range bp.movable {
		vars := make([]int, len(cands[op]))
		ones := make([]float64, len(cands[op]))
		for i := range cands[op] {
			vars[i] = bp.lp.AddVar(0, 0, 1)
			ones[i] = 1
			bp.ints = append(bp.ints, vars[i])
		}
		bp.varOf[op] = vars
		bp.addRow(flight.FamilyAssignment, lp.EQ, 1, vars, ones)
	}

	// Capacity: at most one op per PE per context (among movable ops;
	// frozen PEs were excluded from candidate sets). Slots are emitted in
	// sorted order — row order steers simplex pivoting, and map-order
	// iteration here would make the whole flow nondeterministic across
	// process runs.
	type slot struct{ ctx, pe int }
	capVars := make(map[slot][]int)
	var slots []slot
	for _, op := range bp.movable {
		for i, pe := range cands[op] {
			s := slot{d.Ctx[op], pe}
			if _, seen := capVars[s]; !seen {
				slots = append(slots, s)
			}
			capVars[s] = append(capVars[s], bp.varOf[op][i])
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].ctx != slots[b].ctx {
			return slots[a].ctx < slots[b].ctx
		}
		return slots[a].pe < slots[b].pe
	})
	for _, s := range slots {
		vars := capVars[s]
		if len(vars) < 2 {
			continue
		}
		ones := make([]float64, len(vars))
		for i := range ones {
			ones[i] = 1
		}
		bp.addRow(flight.FamilyCapacity, lp.LE, 1, vars, ones)
	}

	// Accumulated stress budget per PE.
	type stressTerm struct {
		vars []int
		val  []float64
	}
	stressRows := make([]stressTerm, f.NumPEs())
	for _, op := range bp.movable {
		sr := d.StressRate(op)
		for i, pe := range cands[op] {
			stressRows[pe].vars = append(stressRows[pe].vars, bp.varOf[op][i])
			stressRows[pe].val = append(stressRows[pe].val, sr)
		}
	}
	for pe, term := range stressRows {
		rhs := stTarget - committed[pe]
		if rhs < -1e-9 {
			// Frozen/earlier-batch stress alone busts the budget: no
			// assignment of this batch can repair it.
			bp.infeasibleReason = "committed stress alone exceeds ST_target"
			return bp
		}
		if len(term.vars) == 0 {
			continue
		}
		if rhs < 0 {
			rhs = 0
		}
		bp.stressRows = append(bp.stressRows, bp.lp.NumRows())
		bp.addRow(flight.FamilyStressBudget, lp.LE, rhs, term.vars, term.val)
	}

	// Path wire-length budgets. Positions of non-movable endpoints are
	// constants; movable endpoints expand into sum_k OP*coord terms.
	posOf := func(op int) (arch.Coord, bool) { // constant position, or movable
		if movableSet[op] {
			return arch.Coord{}, false
		}
		if pe, fr := frozenPos[op]; fr {
			return pe, true
		}
		return mCur[op], true
	}

	type arcKey struct{ a, b int }
	type arcVars struct{ dx, dy int }
	distOf := make(map[arcKey]arcVars)
	maxDist := float64(f.W - 1 + f.H - 1)
	// The wire term keeps the otherwise-null objective from leaving the
	// LP relaxation completely undirected: it concentrates each op's
	// fractional mass near its data neighbours, which is what makes the
	// 0.95 pre-mapping rule and the rounding dive effective. It never
	// affects feasibility.
	const wireObj = 0.02

	// axisRow adds d >= expr(a) - expr(b) for one axis, where expr is the
	// (variable or constant) coordinate of the endpoint.
	axisRow := func(dvar int, aOp, bOp int, axis int) {
		build := func(sign float64, op int, idx *[]int, val *[]float64, rhs *float64) {
			if pos, fixed := posOf(op); fixed {
				cv := float64(pos.X)
				if axis == 1 {
					cv = float64(pos.Y)
				}
				*rhs += sign * cv
				return
			}
			for i, pe := range bp.candOf[op] {
				co := f.CoordOf(pe)
				cv := float64(co.X)
				if axis == 1 {
					cv = float64(co.Y)
				}
				if cv == 0 {
					continue
				}
				*idx = append(*idx, bp.varOf[op][i])
				*val = append(*val, -sign*cv) // moved to the LHS
			}
		}
		// d - coord(a) + coord(b) >= -0  =>  d >= coord(a) - coord(b)
		idx := []int{dvar}
		val := []float64{1}
		rhs := 0.0
		build(+1, aOp, &idx, &val, &rhs)
		build(-1, bOp, &idx, &val, &rhs)
		bp.addRow(flight.FamilyWireAxis, lp.GE, rhs, idx, val)
		// d + coord(a) - coord(b) >= 0  =>  d >= coord(b) - coord(a)
		idx = []int{dvar}
		val = []float64{1}
		rhs = 0.0
		build(-1, aOp, &idx, &val, &rhs)
		build(+1, bOp, &idx, &val, &rhs)
		bp.addRow(flight.FamilyWireAxis, lp.GE, rhs, idx, val)
	}

	for _, p := range paths {
		budget := (cpd - p.PEDelaySum) / d.UnitWireDelayNs
		constLen := 0.0
		var rowIdx []int
		var rowVal []float64
		touchesBatch := false
		for _, a := range p.Arcs() {
			if a.From < 0 {
				continue
			}
			pa, fa := posOf(a.From)
			pb, fb := posOf(a.To)
			if fa && fb {
				constLen += float64(pa.Dist(pb))
				continue
			}
			touchesBatch = true
			lo, hi := a.From, a.To
			if lo > hi {
				lo, hi = hi, lo
			}
			key := arcKey{lo, hi}
			av, ok := distOf[key]
			if !ok {
				av = arcVars{
					dx: bp.lp.AddVar(wireObj, 0, maxDist),
					dy: bp.lp.AddVar(wireObj, 0, maxDist),
				}
				distOf[key] = av
				axisRow(av.dx, lo, hi, 0)
				axisRow(av.dy, lo, hi, 1)
			}
			rowIdx = append(rowIdx, av.dx, av.dy)
			rowVal = append(rowVal, 1, 1)
		}
		if !touchesBatch {
			if constLen > budget+1e-9 {
				bp.infeasibleReason = "frozen path exceeds its wire budget"
				return bp
			}
			continue
		}
		rhs := budget - constLen
		if rhs < -1e-9 {
			bp.infeasibleReason = "path budget exhausted by fixed arcs"
			return bp
		}
		// Deduplicate arc variables repeated within one path row.
		di, dv := dedupIdx(rowIdx, rowVal)
		bp.pathRows = append(bp.pathRows, bp.lp.NumRows())
		bp.addRow(flight.FamilyPathDelay, lp.LE, rhs, di, dv)
	}

	return bp
}

// dedupIdx merges duplicate indices by summing their coefficients.
func dedupIdx(idx []int, val []float64) ([]int, []float64) {
	acc := make(map[int]float64, len(idx))
	for k, j := range idx {
		acc[j] += val[k]
	}
	outIdx := make([]int, 0, len(acc))
	for j := range acc {
		outIdx = append(outIdx, j)
	}
	sort.Ints(outIdx)
	outVal := make([]float64, len(outIdx))
	for k, j := range outIdx {
		outVal[k] = acc[j]
	}
	return outIdx, outVal
}
