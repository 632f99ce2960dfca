package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/dfg"
	"agingfp/internal/hls"
	"agingfp/internal/lp"
	"agingfp/internal/place"
	"agingfp/internal/timing"
)

// buildFreezeBatch constructs the full delay-aware batch problem for the
// whole design in Freeze mode.
func buildFreezeBatch(t *testing.T, d *arch.Design, m0 arch.Mapping, st float64) (*batchProblem, map[int]arch.Coord) {
	t.Helper()
	res := timing.Analyze(d, m0)
	crit := timing.CriticalOps(d, m0, res, 1e-6)
	frozenPos := make(map[int]arch.Coord, len(crit))
	for op := range crit {
		frozenPos[op] = m0[op]
	}
	paths := timing.EnumeratePaths(d, m0, res, timing.DefaultEnumerateOptions())

	inBatch := map[int]bool{}
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
	for op, pe := range frozenPos {
		committed[d.Fabric.Index(pe)] += d.StressRate(op)
	}
	stress0 := arch.ComputeStress(d, m0)
	rng := rand.New(rand.NewSource(5))
	cands := candidateSets(d, m0, stress0, frozenPos, movable, rng)
	opts := DefaultOptions()
	opts.Mode = Freeze
	bp := buildBatch(d, m0, inBatch, frozenPos, cands, paths, st, committed, res.CPD)
	return bp, frozenPos
}

// TestOriginalAssignmentSatisfiesFormulation: in Freeze mode with the
// budget at the original max stress, the original floorplan must be a
// feasible point of formulation (3). This pins down the formulation's
// correctness independent of any solver heuristics.
func TestOriginalAssignmentSatisfiesFormulation(t *testing.T) {
	d, err := hls.BuildDesign("fir", dfg.FIR(16), arch.Fabric{W: 6, H: 6}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stUp := arch.ComputeStress(d, m0).Max()
	bp, _ := buildFreezeBatch(t, d, m0, stUp+1e-9)
	if bp.infeasibleReason != "" {
		t.Fatalf("construction infeasible: %s", bp.infeasibleReason)
	}

	// Construct the original assignment as variable values: OP vars from
	// the original mapping, distance vars at their exact |coord diffs|
	// (recovered by minimizing each >= pair, i.e. set to satisfy rows).
	x := make([]float64, bp.lp.NumVars())
	for _, op := range bp.movable {
		found := false
		for i, pe := range bp.candOf[op] {
			if pe == d.Fabric.Index(m0[op]) {
				x[bp.varOf[op][i]] = 1
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("op %d: original PE %v not among its candidates", op, m0[op])
		}
	}
	// Distance variables: satisfy d >= |expr| rows with the smallest
	// possible value. Recover them by scanning rows: every GE row has
	// exactly one distance var with coefficient 1 plus OP terms; set the
	// var to the max over its rows of (rhs - OP terms).
	fixupDistanceVars(bp, x)

	// Check every row.
	if vio := firstViolatedRow(bp.lp, x); vio >= 0 {
		t.Fatalf("original assignment violates row %d of the formulation", vio)
	}

	// And the solver must find some solution at this budget.
	f := newFold(DefaultOptions()).run(&Stats{})
	asn, ok, _, err := solveBatch(context.Background(), bp, DefaultOptions(), f, rand.New(rand.NewSource(9)), time.Time{}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("solver reports infeasible although the original floorplan is feasible")
	}
	if len(asn) != len(bp.movable) {
		t.Fatalf("assignment covers %d of %d movable ops", len(asn), len(bp.movable))
	}
}

// fixupDistanceVars sets non-binary variables to the smallest values
// satisfying all their GE rows given the binary assignment in x.
func fixupDistanceVars(bp *batchProblem, x []float64) {
	isInt := map[int]bool{}
	for _, v := range bp.ints {
		isInt[v] = true
	}
	rows := bp.lp.Rows()
	for _, r := range rows {
		if r.Sense != lp.GE {
			continue
		}
		// Find the single continuous var in the row.
		dvar := -1
		rest := 0.0
		for k, j := range r.Idx {
			if !isInt[j] && r.Val[k] == 1 {
				dvar = j
				continue
			}
			rest += r.Val[k] * x[j]
		}
		if dvar < 0 {
			continue
		}
		need := r.RHS - rest
		if need > x[dvar] {
			x[dvar] = need
		}
	}
}

// firstViolatedRow returns the index of the first violated row, or -1.
func firstViolatedRow(p *lp.Problem, x []float64) int {
	for i, r := range p.Rows() {
		v := 0.0
		for k, j := range r.Idx {
			v += r.Val[k] * x[j]
		}
		switch r.Sense {
		case lp.LE:
			if v > r.RHS+1e-6 {
				return i
			}
		case lp.GE:
			if v < r.RHS-1e-6 {
				return i
			}
		case lp.EQ:
			if math.Abs(v-r.RHS) > 1e-6 {
				return i
			}
		}
	}
	return -1
}

// TestCandidateSetsRespectFrozen: every candidate set holds the op's own
// PE and no PE a frozen op of the same context occupies, and an op whose
// context has no frozen op gets the whole fabric.
func TestCandidateSetsRespectFrozen(t *testing.T) {
	d, err := hls.BuildDesign("fir", dfg.FIR(16), arch.Fabric{W: 6, H: 6}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := timing.Analyze(d, m0)
	frozenPos := make(map[int]arch.Coord)
	for op := range timing.CriticalOps(d, m0, res, 1e-6) {
		frozenPos[op] = m0[op]
	}
	if len(frozenPos) == 0 {
		t.Fatal("no critical ops to freeze; the test needs some")
	}
	frozenAt := make(map[[2]int]bool, len(frozenPos)) // (ctx, PE)
	for op, pe := range frozenPos {
		frozenAt[[2]int{d.Ctx[op], d.Fabric.Index(pe)}] = true
	}
	var movable []int
	for op := 0; op < d.NumOps(); op++ {
		if _, fr := frozenPos[op]; !fr {
			movable = append(movable, op)
		}
	}
	n := d.Fabric.NumPEs()
	cands := candidateSets(d, m0, arch.ComputeStress(d, m0), frozenPos, movable, rand.New(rand.NewSource(1)))
	sawFrozenCtx, sawFreeCtx := false, false
	for _, op := range movable {
		set := cands[op]
		own, c := d.Fabric.Index(m0[op]), d.Ctx[op]
		hasOwn, ctxFrozen := false, false
		for _, pe := range set {
			if pe == own {
				hasOwn = true
			}
			if frozenAt[[2]int{c, pe}] {
				t.Fatalf("op %d: candidate PE %d is held by a frozen op of context %d", op, pe, c)
			}
		}
		if !hasOwn {
			t.Fatalf("op %d: own PE %d missing from its candidates %v", op, own, set)
		}
		for pe := 0; pe < n; pe++ {
			ctxFrozen = ctxFrozen || frozenAt[[2]int{c, pe}]
		}
		if ctxFrozen {
			sawFrozenCtx = true
		} else {
			sawFreeCtx = true
			if len(set) != n {
				t.Fatalf("op %d: context %d has no frozen op, but %d of %d PEs are candidates", op, c, len(set), n)
			}
		}
	}
	if !sawFrozenCtx || !sawFreeCtx {
		t.Fatalf("instance exercises frozen contexts %v, frozen-free contexts %v; want both", sawFrozenCtx, sawFreeCtx)
	}
}
