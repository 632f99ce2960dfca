package core_test

import (
	"context"
	"slices"
	"testing"

	"agingfp/internal/bench"
	"agingfp/internal/core"
	"agingfp/internal/place"
)

// TestRemapRepeatsItself runs B7 through RemapBoth several times on one
// input and requires every run to do the same work and return the same
// floorplans. Per-PE stress that frozen or already-solved ops commit
// becomes LP right-hand sides; summed in map order it differed in the
// last ulp from run to run, and B7's Freeze arm then took a different
// number of simplex iterations and sometimes another floorplan.
func TestRemapRepeatsItself(t *testing.T) {
	if core.RaceDetectorEnabled {
		t.Skip("skipping heavyweight sequential flow test under -race")
	}
	spec, ok := bench.SpecByName("B7")
	if !ok {
		t.Fatal("unknown benchmark B7")
	}
	d, err := bench.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type arm struct {
		iters, solves int
		mapping       []int
	}
	summarize := func(r *core.Result) arm {
		a := arm{iters: r.Stats.SimplexIters, solves: r.Stats.LPSolves}
		for _, c := range r.Mapping {
			a.mapping = append(a.mapping, d.Fabric.Index(c))
		}
		return a
	}
	var first [2]arm
	for run := 0; run < 4; run++ {
		fr, ro, err := core.RemapBoth(context.Background(), d, m0, core.DefaultOptions())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := [2]arm{summarize(fr), summarize(ro)}
		if run == 0 {
			first = got
			continue
		}
		for i, name := range []string{"freeze", "rotate"} {
			w, g := first[i], got[i]
			if g.iters != w.iters || g.solves != w.solves || !slices.Equal(g.mapping, w.mapping) {
				t.Errorf("run %d %s arm: %d iterations, %d LPs (mapping equal: %v); run 0: %d iterations, %d LPs",
					run, name, g.iters, g.solves, slices.Equal(g.mapping, w.mapping), w.iters, w.solves)
			}
		}
	}
}
