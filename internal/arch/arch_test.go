package arch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"agingfp/internal/dfg"
)

func TestCoordDist(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{3, 4}, 7},
		{Coord{5, 1}, Coord{2, 3}, 5},
	}
	for _, c := range cases {
		if got := c.a.Dist(c.b); got != c.want {
			t.Errorf("Dist(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Dist(c.a); got != c.want {
			t.Errorf("Dist not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestFabricIndexRoundTrip(t *testing.T) {
	f := Fabric{W: 7, H: 5}
	for i := 0; i < f.NumPEs(); i++ {
		c := f.CoordOf(i)
		if !f.Contains(c) {
			t.Fatalf("CoordOf(%d) = %v outside fabric", i, c)
		}
		if f.Index(c) != i {
			t.Fatalf("Index(CoordOf(%d)) = %d", i, f.Index(c))
		}
	}
	if f.Contains(Coord{7, 0}) || f.Contains(Coord{0, 5}) || f.Contains(Coord{-1, 0}) {
		t.Fatal("Contains accepts out-of-range coords")
	}
}

func TestOpDelay(t *testing.T) {
	if OpDelayNs(dfg.ALU) != ALUDelayNs || OpDelayNs(dfg.DMU) != DMUDelayNs {
		t.Fatal("wrong delays")
	}
}

// chainDesign builds a 2-context design: ctx0 has two chained ALUs, ctx1
// one DMU consuming the chain result.
func chainDesign() *Design {
	g := &dfg.Graph{}
	a := g.AddOp(dfg.ALU, "a")
	b := g.AddOp(dfg.ALU, "b")
	c := g.AddOp(dfg.DMU, "c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	return NewDesign("chain", Fabric{W: 4, H: 4}, 2, g, []int{0, 0, 1})
}

func TestDesignValidate(t *testing.T) {
	d := chainDesign()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Causality violation.
	bad := chainDesign()
	bad.Ctx = []int{1, 0, 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("causality violation accepted")
	}
	// Context out of range.
	bad2 := chainDesign()
	bad2.Ctx = []int{0, 0, 5}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range context accepted")
	}
}

func TestContextOps(t *testing.T) {
	d := chainDesign()
	if got := d.ContextOps(0); len(got) != 2 {
		t.Fatalf("ctx0 ops %v", got)
	}
	if got := d.ContextOps(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ctx1 ops %v", got)
	}
	if d.MaxContextOps() != 2 {
		t.Fatalf("MaxContextOps %d", d.MaxContextOps())
	}
}

func TestAdjacencyHelpers(t *testing.T) {
	d := chainDesign()
	if got := d.IntraPreds(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("IntraPreds(1) = %v", got)
	}
	if got := d.CrossPreds(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("CrossPreds(2) = %v", got)
	}
	if got := d.IntraSuccs(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("IntraSuccs(0) = %v", got)
	}
	if got := d.IntraEdges(0); len(got) != 1 {
		t.Fatalf("IntraEdges(0) = %v", got)
	}
}

func TestValidateMapping(t *testing.T) {
	d := chainDesign()
	m := Mapping{{0, 0}, {1, 0}, {0, 0}} // op2 in ctx1 may reuse (0,0)
	if err := ValidateMapping(d, m); err != nil {
		t.Fatal(err)
	}
	collide := Mapping{{0, 0}, {0, 0}, {1, 1}} // ops 0,1 same ctx same PE
	if err := ValidateMapping(d, collide); err == nil {
		t.Fatal("same-context collision accepted")
	}
	off := Mapping{{0, 0}, {9, 0}, {1, 1}}
	if err := ValidateMapping(d, off); err == nil {
		t.Fatal("off-fabric coordinate accepted")
	}
	short := Mapping{{0, 0}}
	if err := ValidateMapping(d, short); err == nil {
		t.Fatal("short mapping accepted")
	}
}

func TestStressComputation(t *testing.T) {
	d := chainDesign()
	m := Mapping{{0, 0}, {1, 0}, {0, 0}}
	s := ComputeStress(d, m)
	aluSR := ALUDelayNs / DefaultClockPeriodNs
	dmuSR := DMUDelayNs / DefaultClockPeriodNs
	if got := s.At(Coord{0, 0}); !close(got, aluSR+dmuSR) {
		t.Fatalf("stress(0,0) = %g, want %g", got, aluSR+dmuSR)
	}
	if got := s.At(Coord{1, 0}); !close(got, aluSR) {
		t.Fatalf("stress(1,0) = %g", got)
	}
	if !close(s.Total(), 2*aluSR+dmuSR) {
		t.Fatalf("total %g", s.Total())
	}
}

// Property: total stress is invariant under any legal re-mapping.
func TestStressConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dfg.MustNewLayered(rng, dfg.DefaultLayeredSpec(20, 4))
		ctx := make([]int, 20)
		levels, _ := g.Levels()
		for i := range ctx {
			ctx[i] = levels[i]
		}
		d := NewDesign("p", Fabric{W: 6, H: 6}, maxOf(ctx)+1, g, ctx)
		if err := d.Validate(); err != nil {
			return true // generator produced an over-wide context; skip
		}
		m1 := randomLegalMapping(d, rng)
		m2 := randomLegalMapping(d, rng)
		s1, s2 := ComputeStress(d, m1), ComputeStress(d, m2)
		return close(s1.Total(), s2.Total())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomLegalMapping(d *Design, rng *rand.Rand) Mapping {
	m := make(Mapping, d.NumOps())
	for c := 0; c < d.NumContexts; c++ {
		perm := rng.Perm(d.Fabric.NumPEs())
		for i, op := range d.ContextOps(c) {
			m[op] = d.Fabric.CoordOf(perm[i])
		}
	}
	return m
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestStressMapStats(t *testing.T) {
	s := NewStressMap(Fabric{W: 3, H: 2})
	s[0][0] = 1
	s[1][2] = 5
	if s.Max() != 5 || !close(s.Total(), 6) || !close(s.Mean(), 1.0) {
		t.Fatalf("max %g total %g mean %g", s.Max(), s.Total(), s.Mean())
	}
}

func TestUtilizationRate(t *testing.T) {
	d := chainDesign() // 3 ops, 2 contexts, 16 PEs
	want := 3.0 / (2 * 16)
	if got := d.UtilizationRate(); !close(got, want) {
		t.Fatalf("utilization %g, want %g", got, want)
	}
}

func TestRenderers(t *testing.T) {
	d := chainDesign()
	m := Mapping{{0, 0}, {1, 0}, {0, 0}}
	if out := RenderStress(ComputeStress(d, m)); len(out) == 0 {
		t.Fatal("empty stress render")
	}
	if out := RenderOccupancy(d, m, 0); len(out) == 0 {
		t.Fatal("empty occupancy render")
	}
	grid := [][]float64{{1, 2}, {3, 4}}
	if out := RenderHeat(grid); len(out) == 0 {
		t.Fatal("empty heat render")
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
