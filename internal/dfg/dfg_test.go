package dfg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddOpAndEdge(t *testing.T) {
	g := &Graph{}
	a := g.AddOp(ALU, "a")
	b := g.AddOp(DMU, "b")
	g.AddEdge(a, b)
	if g.NumOps() != 2 || len(g.Edges) != 1 {
		t.Fatalf("ops %d edges %d", g.NumOps(), len(g.Edges))
	}
	if got := g.Succs(a); len(got) != 1 || got[0] != b {
		t.Fatalf("Succs(a) = %v", got)
	}
	if got := g.Preds(b); len(got) != 1 || got[0] != a {
		t.Fatalf("Preds(b) = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := &Graph{}
	g.AddOp(ALU, "a")
	g.AddEdge(0, 5)
}

func TestTopoOrderAndCycle(t *testing.T) {
	g := &Graph{}
	a := g.AddOp(ALU, "a")
	b := g.AddOp(ALU, "b")
	c := g.AddOp(ALU, "c")
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	if pos[a] > pos[b] || pos[b] > pos[c] {
		t.Fatalf("bad order %v", order)
	}
	g.AddEdge(c, a) // cycle
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed cycle")
	}
}

func TestValidateRejectsDuplicatesAndSelfLoops(t *testing.T) {
	g := &Graph{}
	a := g.AddOp(ALU, "a")
	b := g.AddOp(ALU, "b")
	g.AddEdge(a, b)
	g.AddEdge(a, b)
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	g2 := &Graph{}
	x := g2.AddOp(ALU, "x")
	g2.Edges = append(g2.Edges, Edge{From: x, To: x})
	if err := g2.Validate(); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestLevels(t *testing.T) {
	g := FIR(4) // 4 muls + 3 adds (tree of depth 2)
	levels, n := g.Levels()
	if n != 3 {
		t.Fatalf("depth %d, want 3", n)
	}
	for _, in := range g.Inputs() {
		if levels[in] != 0 {
			t.Fatalf("input op %d at level %d", in, levels[in])
		}
	}
}

func TestInputsOutputs(t *testing.T) {
	g := FIR(8)
	if len(g.Inputs()) != 8 {
		t.Fatalf("inputs %d, want 8 taps", len(g.Inputs()))
	}
	if len(g.Outputs()) != 1 {
		t.Fatalf("outputs %d, want 1 accumulator root", len(g.Outputs()))
	}
}

func TestKernelsValid(t *testing.T) {
	for name, mk := range Kernels {
		g := mk()
		if err := g.Validate(); err != nil {
			t.Errorf("kernel %s invalid: %v", name, err)
		}
		if g.NumOps() == 0 {
			t.Errorf("kernel %s empty", name)
		}
	}
}

func TestFIRSizes(t *testing.T) {
	for _, taps := range []int{1, 2, 7, 16} {
		g := FIR(taps)
		wantMuls := taps
		st := g.Stat()
		if st.DMUOps != wantMuls {
			t.Errorf("FIR(%d): %d DMU ops, want %d", taps, st.DMUOps, wantMuls)
		}
		if taps > 1 && st.ALUOps != taps-1 {
			t.Errorf("FIR(%d): %d ALU ops, want %d (adder tree)", taps, st.ALUOps, taps-1)
		}
	}
}

func TestMatMulSize(t *testing.T) {
	g := MatMul(3)
	st := g.Stat()
	if st.DMUOps != 27 {
		t.Fatalf("MatMul(3): %d multiplies, want 27", st.DMUOps)
	}
	if st.Outputs != 9 {
		t.Fatalf("MatMul(3): %d outputs, want 9", st.Outputs)
	}
}

func TestReduceTreeDepth(t *testing.T) {
	g := ReduceTree(32)
	_, depth := g.Levels()
	if depth != 6 { // 32 leaves + log2(32) add levels
		t.Fatalf("depth %d, want 6", depth)
	}
}

func TestStatCounts(t *testing.T) {
	g := IIR(3)
	st := g.Stat()
	if st.Ops != g.NumOps() || st.ALUOps+st.DMUOps != st.Ops {
		t.Fatalf("inconsistent stats %+v", st)
	}
	if st.DMUOps != 15 { // 5 muls per section
		t.Fatalf("IIR(3): %d muls, want 15", st.DMUOps)
	}
}

func TestLayeredGeneratorProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := 5 + rng.Intn(80)
		depth := 1 + rng.Intn(ops)
		if depth > 12 {
			depth = 12
		}
		spec := DefaultLayeredSpec(ops, depth)
		g, err := NewLayered(rng, spec)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if g.NumOps() != ops {
			t.Logf("seed %d: ops %d != %d", seed, g.NumOps(), ops)
			return false
		}
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: invalid: %v", seed, err)
			return false
		}
		_, gotDepth := g.Levels()
		if gotDepth != depth {
			t.Logf("seed %d: depth %d != %d", seed, gotDepth, depth)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLayeredSpecErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []LayeredSpec{
		{Ops: 0, Depth: 1, MaxFanIn: 2},
		{Ops: 5, Depth: 0, MaxFanIn: 2},
		{Ops: 5, Depth: 6, MaxFanIn: 2},
		{Ops: 5, Depth: 2, MaxFanIn: 0},
		{Ops: 5, Depth: 2, MaxFanIn: 2, DMUFrac: 1.5},
	}
	for i, spec := range cases {
		if _, err := NewLayered(rng, spec); err == nil {
			t.Errorf("case %d: bad spec accepted: %+v", i, spec)
		}
	}
}

func TestSortedEdgesDeterministic(t *testing.T) {
	g := &Graph{}
	a := g.AddOp(ALU, "a")
	b := g.AddOp(ALU, "b")
	c := g.AddOp(ALU, "c")
	g.AddEdge(b, c)
	g.AddEdge(a, c)
	g.AddEdge(a, b)
	es := g.SortedEdges()
	if es[0] != (Edge{a, b}) || es[1] != (Edge{a, c}) || es[2] != (Edge{b, c}) {
		t.Fatalf("bad order: %v", es)
	}
}
