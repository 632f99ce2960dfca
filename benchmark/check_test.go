package main

import (
	"strings"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/dfg"
	"agingfp/internal/timing"
)

// b1 is a small design with its placed baseline: a legal floorplan the
// checker must accept when its claims are true.
func b1(t *testing.T) *instance {
	t.Helper()
	spec, _ := bench.SpecByName("B1")
	in, err := makeInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func honestClaim(in *instance, m arch.Mapping) floorplanClaim {
	cpd := timing.Analyze(in.d, m).CPD
	stress := arch.ComputeStress(in.d, m).Max()
	return floorplanClaim{Mapping: m, MaxStress: stress, STTarget: stress, NewCPD: cpd,
		OrigCPD: timing.Analyze(in.d, in.m0).CPD, ExactStress: true}
}

func wantViolation(t *testing.T, bad []string, substr string) {
	t.Helper()
	for _, b := range bad {
		if strings.Contains(b, substr) {
			return
		}
	}
	t.Errorf("violations %q lack %q", bad, substr)
}

func TestCheckerAcceptsHonestFloorplan(t *testing.T) {
	in := b1(t)
	if bad := checkFloorplan(in.d, in.m0, honestClaim(in, in.m0)); len(bad) > 0 {
		t.Fatalf("baseline rejected: %v", bad)
	}
	if bad := checkRotateVsFreeze(in.d, in.m0, in.m0); len(bad) > 0 {
		t.Fatalf("equal arms rejected: %v", bad)
	}
}

func TestCheckerCatchesDuplicatePE(t *testing.T) {
	in := b1(t)
	m := in.m0.Clone()
	ops := in.d.ContextOps(0)
	m[ops[1]] = m[ops[0]]
	c := honestClaim(in, in.m0)
	c.Mapping = m
	wantViolation(t, checkFloorplan(in.d, in.m0, c), "invalid assignment")
}

func TestCheckerCatchesStressOverTarget(t *testing.T) {
	in := b1(t)
	c := honestClaim(in, in.m0)
	c.STTarget = c.MaxStress * 0.9
	wantViolation(t, checkFloorplan(in.d, in.m0, c), "ST_target")
	c = honestClaim(in, in.m0)
	c.MaxStress *= 0.9
	c.STTarget = c.MaxStress
	wantViolation(t, checkFloorplan(in.d, in.m0, c), "reported")
}

func TestCheckerCatchesCPDGrowth(t *testing.T) {
	in := b1(t)
	base := timing.Analyze(in.d, in.m0).CPD
	// Stretch one chained edge: move its consumer to the free PE of its
	// context farthest from the producer.
	var m arch.Mapping
	for _, e := range in.d.Graph.Edges {
		if in.d.Ctx[e.From] != in.d.Ctx[e.To] {
			continue
		}
		used := map[arch.Coord]bool{}
		for _, op := range in.d.ContextOps(in.d.Ctx[e.To]) {
			used[in.m0[op]] = true
		}
		far, best := arch.Coord{}, -1
		for i := 0; i < in.d.Fabric.NumPEs(); i++ {
			pe := in.d.Fabric.CoordOf(i)
			if d := pe.Dist(in.m0[e.From]); !used[pe] && d > best {
				far, best = pe, d
			}
		}
		cand := in.m0.Clone()
		cand[e.To] = far
		if best >= 0 && timing.Analyze(in.d, cand).CPD > base+1e-6 {
			m = cand
			break
		}
	}
	if m == nil {
		t.Fatal("no single move lengthens B1's critical path")
	}
	c := honestClaim(in, m)
	c.NewCPD = c.OrigCPD // the answer claims no growth
	c.STTarget = 1e9
	wantViolation(t, checkFloorplan(in.d, in.m0, c), "re-timed CPD")
}

func TestCheckerCatchesRotateWorseThanFreeze(t *testing.T) {
	// Two contexts of two ALU ops on a 2x2 fabric: spread over all four
	// PEs each PE carries one op; stacked, two PEs carry two.
	g := &dfg.Graph{}
	for i := 0; i < 4; i++ {
		g.AddOp(dfg.ALU, "")
	}
	d := arch.NewDesign("tiny", arch.Fabric{W: 2, H: 2}, 2, g, []int{0, 0, 1, 1})
	spread := arch.Mapping{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	stacked := arch.Mapping{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 0}}
	if bad := checkRotateVsFreeze(d, stacked, spread); len(bad) > 0 {
		t.Fatalf("rotate better than freeze rejected: %v", bad)
	}
	wantViolation(t, checkRotateVsFreeze(d, spread, stacked), "rotate max stress")
}

func TestCheckerCatchesSemanticPermutationMismatch(t *testing.T) {
	in := b1(t)
	perm := make([]int, in.d.NumOps())
	for i := range perm {
		perm[i] = (i + 1) % len(perm)
	}
	renum := make(arch.Mapping, len(perm))
	for i, p := range perm {
		renum[p] = in.m0[i]
	}
	if bad := checkRenumbered(in.m0, renum, perm); len(bad) > 0 {
		t.Fatalf("faithful renumbering rejected: %v", bad)
	}
	renum[perm[0]], renum[perm[1]] = renum[perm[1]], renum[perm[0]]
	if renum[perm[0]] == in.m0[0] {
		t.Skip("ops 0 and 1 share a PE")
	}
	wantViolation(t, checkRenumbered(in.m0, renum, perm), "original answer")
}
