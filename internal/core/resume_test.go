package core

import (
	"context"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/dfg"
	"agingfp/internal/milp"
)

// solveSetup builds the placed FIR design the resume tests seed and
// re-solve. (bench.Synthesize is off-limits here: bench imports core,
// so using it from an internal core test would be an import cycle.)
func solveSetup(t *testing.T) (*arch.Design, arch.Mapping) {
	t.Helper()
	return buildSmall(t, dfg.FIR(8), 4, 4)
}

// TestRemapExportsArtifacts checks every cold solve now carries the
// delta-seeding artifact set.
func TestRemapExportsArtifacts(t *testing.T) {
	d, m0 := solveSetup(t)
	opts := DefaultOptions()
	res, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.Feasible && res.Status != milp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.FrozenOps == nil {
		t.Fatal("FrozenOps not exported")
	}
	if len(res.Bases) == 0 {
		t.Fatal("Bases not exported")
	}
	if res.Resume != nil {
		t.Fatal("cold solve must not report Resume info")
	}
}

// TestRemapFromPriorSameDesign re-solves the identical instance seeded
// with its own artifacts: the bracket must hit and the budget search
// collapse to at most two probes.
func TestRemapFromPriorSameDesign(t *testing.T) {
	d, m0 := solveSetup(t)
	opts := DefaultOptions()
	cold, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != milp.Feasible {
		t.Skipf("cold solve not feasible (%v); bracket resume untestable", cold.Status)
	}
	prior := &Prior{
		Frozen:   cold.FrozenOps,
		STTarget: cold.STTarget,
		Bases:    cold.Bases,
		Mapping:  cold.Mapping,
	}
	warm, err := RemapFromPrior(context.Background(), d, m0, opts, prior)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != milp.Feasible {
		t.Fatalf("seeded status %v", warm.Status)
	}
	if warm.Resume == nil {
		t.Fatal("seeded solve lost Resume info")
	}
	if !warm.Resume.BracketHit {
		t.Fatal("bracket did not hit on the identical instance")
	}
	if warm.Resume.BasesSeeded == 0 {
		t.Fatal("no bases seeded despite matching batch count")
	}
	if cw, cc := warm.Stats.OuterIterations, cold.Stats.OuterIterations; cw > cc {
		t.Fatalf("seeded solve used %d probes, cold used %d", cw, cc)
	}
	if err := arch.ValidateMapping(d, warm.Mapping); err != nil {
		t.Fatalf("seeded mapping invalid: %v", err)
	}
}

// TestRemapFromPriorMutatedDesign seeds a one-op-kind delta — the
// delta API's core scenario. The seeded solve must stay valid and
// spend fewer ST probes than a cold solve of the mutated design.
func TestRemapFromPriorMutatedDesign(t *testing.T) {
	d, m0 := solveSetup(t)
	opts := DefaultOptions()
	cold, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != milp.Feasible {
		t.Skipf("cold solve not feasible (%v)", cold.Status)
	}

	// Flip one op's kind; same graph, same schedule.
	d2, _ := solveSetup(t)
	d2.Graph.Ops[0].Kind = 1 - d2.Graph.Ops[0].Kind

	coldMut, err := Remap(context.Background(), d2, m0, opts)
	if err != nil {
		t.Fatal(err)
	}
	prior := &Prior{
		Frozen:   cold.FrozenOps,
		STTarget: cold.STTarget,
		Bases:    cold.Bases,
		Mapping:  cold.Mapping,
	}
	warm, err := RemapFromPrior(context.Background(), d2, m0, opts, prior)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != milp.Feasible {
		t.Fatalf("seeded status %v", warm.Status)
	}
	if err := arch.ValidateMapping(d2, warm.Mapping); err != nil {
		t.Fatalf("seeded mapping invalid: %v", err)
	}
	if coldMut.Status == milp.Feasible && warm.Stats.OuterIterations > coldMut.Stats.OuterIterations {
		t.Fatalf("seeded solve used %d probes, cold solve of the mutated design used %d",
			warm.Stats.OuterIterations, coldMut.Stats.OuterIterations)
	}
}

func TestPriorFrozenValidation(t *testing.T) {
	d, _ := solveSetup(t)
	crit := map[int]bool{0: true, 1: true}
	coord := arch.Coord{X: 0, Y: 0}

	if _, ok := priorFrozen(d, crit, nil); ok {
		t.Fatal("nil prior must not reuse")
	}
	if _, ok := priorFrozen(d, crit, &Prior{Frozen: map[int]arch.Coord{0: coord}}); ok {
		t.Fatal("missing critical op must not reuse")
	}
	if _, ok := priorFrozen(d, crit, &Prior{Frozen: map[int]arch.Coord{
		0: {X: -1, Y: 0}, 1: coord}}); ok {
		t.Fatal("off-fabric position must not reuse")
	}
	good := &Prior{Frozen: map[int]arch.Coord{0: {X: 0, Y: 0}, 1: {X: 1, Y: 0}}}
	fp, ok := priorFrozen(d, crit, good)
	if !ok || len(fp) != 2 {
		t.Fatalf("valid prior rejected (ok=%v len=%d)", ok, len(fp))
	}
	// Ops 0 and 1 share a context in B1's synthesis only if the chain
	// template put them there; force the collision case explicitly.
	if d.Ctx[0] == d.Ctx[1] {
		dup := &Prior{Frozen: map[int]arch.Coord{0: coord, 1: coord}}
		if _, ok := priorFrozen(d, crit, dup); ok {
			t.Fatal("same-context PE collision must not reuse")
		}
	}
}
