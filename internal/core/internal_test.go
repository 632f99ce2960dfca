package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/dfg"
	"agingfp/internal/hls"
	"agingfp/internal/place"
	"agingfp/internal/timing"
)

func TestDedupIdx(t *testing.T) {
	idx, val := dedupIdx([]int{3, 1, 3, 2, 1}, []float64{1, 2, 4, 3, -2})
	if len(idx) != 3 {
		t.Fatalf("idx %v", idx)
	}
	want := map[int]float64{1: 0, 2: 3, 3: 5}
	for k, j := range idx {
		if val[k] != want[j] {
			t.Fatalf("var %d coefficient %g, want %g", j, val[k], want[j])
		}
	}
	// Sorted output.
	for k := 1; k < len(idx); k++ {
		if idx[k] <= idx[k-1] {
			t.Fatalf("not sorted: %v", idx)
		}
	}
}

func TestBatches(t *testing.T) {
	if got := batches(5, 2); len(got) != 3 || len(got[2]) != 1 {
		t.Fatalf("batches(5,2) = %v", got)
	}
	if got := batches(4, 0); len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("batches(4,0) = %v", got)
	}
	if got := batches(3, 9); len(got) != 1 {
		t.Fatalf("batches(3,9) = %v", got)
	}
	// Coverage: every context exactly once.
	seen := map[int]bool{}
	for _, b := range batches(7, 3) {
		for _, c := range b {
			if seen[c] {
				t.Fatalf("context %d repeated", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != 7 {
		t.Fatalf("%d contexts covered, want 7", len(seen))
	}
}

func TestAutoBatchBounds(t *testing.T) {
	g := dfg.FIR(16)
	d, err := hls.BuildDesign("x", g, arch.Fabric{W: 6, H: 6}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	per := autoBatch(d, 250)
	if per < 1 || per > d.NumContexts {
		t.Fatalf("autoBatch out of range: %d", per)
	}
	// A huge budget admits a single joint batch.
	if autoBatch(d, 1<<20) != d.NumContexts {
		t.Fatal("huge budget should yield a joint batch")
	}
	// A tiny budget degrades to per-context batches, never zero.
	if autoBatch(d, 1) != 1 {
		t.Fatal("tiny budget must clamp to 1")
	}
}

// TestRotateFrozenGeometry: in Rotate mode frozen ops stay on the fabric,
// never collide within a context, and preserve intra-context pairwise
// distances (grid isometry).
func TestRotateFrozenGeometry(t *testing.T) {
	d, err := hls.BuildDesign("fir", dfg.FIR(16), arch.Fabric{W: 6, H: 6}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := timing.Analyze(d, m0)
	crit := timing.CriticalOps(d, m0, res, 1e-6)
	if len(crit) == 0 {
		t.Skip("no critical ops on this workload")
	}
	opts := DefaultOptions()
	rng := rand.New(rand.NewSource(3))
	pos := rotateFrozen(context.Background(), d, m0, crit, opts, rng, newFold(context.Background(), opts).run(&Stats{}))
	if len(pos) != len(crit) {
		t.Fatalf("%d rotated positions for %d critical ops", len(pos), len(crit))
	}
	byCtx := map[int]map[arch.Coord]bool{}
	for op, pe := range pos {
		if !d.Fabric.Contains(pe) {
			t.Fatalf("op %d rotated off fabric: %v", op, pe)
		}
		c := d.Ctx[op]
		if byCtx[c] == nil {
			byCtx[c] = map[arch.Coord]bool{}
		}
		if byCtx[c][pe] {
			t.Fatalf("collision at %v in context %d", pe, c)
		}
		byCtx[c][pe] = true
	}
	// Pairwise intra-context distances preserved.
	ops := make([]int, 0, len(pos))
	for op := range pos {
		ops = append(ops, op)
	}
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			a, b := ops[i], ops[j]
			if d.Ctx[a] != d.Ctx[b] {
				continue
			}
			if m0[a].Dist(m0[b]) != pos[a].Dist(pos[b]) {
				t.Fatalf("distance %d-%d changed: %d -> %d",
					a, b, m0[a].Dist(m0[b]), pos[a].Dist(pos[b]))
			}
		}
	}
}

// TestViolatedPathsDetectsRegression: stretch one op far away and the
// helper must flag the now-too-long path.
func TestViolatedPathsDetectsRegression(t *testing.T) {
	g := &dfg.Graph{}
	a := g.AddOp(dfg.ALU, "a")
	b := g.AddOp(dfg.DMU, "b")
	c := g.AddOp(dfg.DMU, "c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	d := arch.NewDesign("x", arch.Fabric{W: 8, H: 8}, 2, g, []int{0, 1, 1})
	m := arch.Mapping{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	res := timing.Analyze(d, m)
	budget := res.CPD

	// No violation at the original mapping.
	if v := violatedPaths(d, m, res, budget); len(v) != 0 {
		t.Fatalf("false positives: %d", len(v))
	}
	// Stretch c away: the b->c chain busts the budget.
	m2 := m.Clone()
	m2[2] = arch.Coord{X: 7, Y: 7}
	res2 := timing.Analyze(d, m2)
	v := violatedPaths(d, m2, res2, budget)
	if len(v) == 0 {
		t.Fatal("regression not detected")
	}
	for _, p := range v {
		if p.Delay <= budget {
			t.Fatalf("non-violating path returned: %g <= %g", p.Delay, budget)
		}
	}
}

func TestPathIdentDistinguishes(t *testing.T) {
	p1 := &timing.Path{Context: 0, Source: -1, Ops: []int{1, 2}}
	p2 := &timing.Path{Context: 0, Source: 3, Ops: []int{1, 2}}
	p3 := &timing.Path{Context: 1, Source: -1, Ops: []int{1, 2}}
	p4 := &timing.Path{Context: 0, Source: -1, Ops: []int{1, 2, 3}}
	ids := map[string]bool{}
	for _, p := range []*timing.Path{p1, p2, p3, p4} {
		id := pathIdent(p)
		if ids[id] {
			t.Fatalf("collision for %+v", p)
		}
		ids[id] = true
	}
}

func TestRemapRejectsBadOptions(t *testing.T) {
	d, err := hls.BuildDesign("x", dfg.FIR(4), arch.Fabric{W: 4, H: 4}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad1 := DefaultOptions()
	bad1.Mode = Mode(-1)
	if _, err := Remap(context.Background(), d, m0, bad1); err == nil {
		t.Fatal("unknown mode accepted")
	}
	bad2 := DefaultOptions()
	bad2.TimeLimit = -time.Millisecond
	if _, err := Remap(context.Background(), d, m0, bad2); err == nil {
		t.Fatal("negative time limit accepted")
	}
	short := m0[:1]
	if _, err := Remap(context.Background(), d, short, DefaultOptions()); err == nil {
		t.Fatal("short mapping accepted")
	}
}
