package bench

import (
	"context"
	"testing"

	"agingfp/internal/place"
	"agingfp/internal/timing"
)

func TestTableIComplete(t *testing.T) {
	if len(TableI) != 27 {
		t.Fatalf("%d benchmarks, want 27", len(TableI))
	}
	seen := map[string]bool{}
	for _, s := range TableI {
		if seen[s.Name] {
			t.Fatalf("duplicate name %s", s.Name)
		}
		seen[s.Name] = true
		if s.TotalOps < s.Contexts {
			t.Fatalf("%s: fewer ops than contexts", s.Name)
		}
		if s.PaperFreeze <= 1 || s.PaperRotate < s.PaperFreeze {
			t.Fatalf("%s: inconsistent paper numbers %g/%g", s.Name, s.PaperFreeze, s.PaperRotate)
		}
	}
	// The paper's bands are relative within each (contexts, fabric)
	// group: low < medium < high utilization (e.g. B21 "high" at 0.54
	// sits below B14 "medium" at 0.55 — different groups).
	type key struct{ ctx, fab int }
	groups := map[key][3]float64{}
	for _, s := range TableI {
		k := key{s.Contexts, s.Fabric.W}
		g := groups[k]
		g[int(s.Band)] = s.Utilization()
		groups[k] = g
	}
	for k, g := range groups {
		if !(g[0] < g[1] && g[1] < g[2]) {
			t.Errorf("group C%dF%d: utilizations not ordered: %.2f %.2f %.2f",
				k.ctx, k.fab, g[0], g[1], g[2])
		}
	}
}

func TestSpecByName(t *testing.T) {
	if s, ok := SpecByName("B14"); !ok || s.Contexts != 8 || s.TotalOps != 280 {
		t.Fatalf("B14 lookup wrong: %+v ok=%v", s, ok)
	}
	if _, ok := SpecByName("B99"); ok {
		t.Fatal("nonexistent benchmark found")
	}
}

func TestSynthesizeMatchesSpec(t *testing.T) {
	for _, s := range TableI {
		if s.Fabric.NumPEs() > 64 {
			continue // keep the unit test quick; 16x16 covered by Scaled
		}
		d, err := Synthesize(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if d.NumOps() != s.TotalOps {
			t.Fatalf("%s: %d ops, want %d", s.Name, d.NumOps(), s.TotalOps)
		}
		if d.NumContexts != s.Contexts {
			t.Fatalf("%s: %d contexts, want %d", s.Name, d.NumContexts, s.Contexts)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: invalid design: %v", s.Name, err)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	s, _ := SpecByName("B13")
	d1, err := Synthesize(s)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := Synthesize(s)
	if d1.NumOps() != d2.NumOps() || len(d1.Graph.Edges) != len(d2.Graph.Edges) {
		t.Fatal("generator not deterministic")
	}
	for i, e := range d1.Graph.Edges {
		if d2.Graph.Edges[i] != e {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestSynthesizedDesignIsPlaceable(t *testing.T) {
	for _, name := range []string{"B1", "B13", "B22"} {
		s, _ := SpecByName(name)
		d, err := Synthesize(s)
		if err != nil {
			t.Fatal(err)
		}
		m, err := place.Place(d, place.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := timing.Analyze(d, m)
		if res.CPD > d.ClockPeriodNs+1e-9 {
			t.Fatalf("%s: CPD %.3f exceeds clock", name, res.CPD)
		}
	}
}

func TestScaledPreservesBand(t *testing.T) {
	s, _ := SpecByName("B27")
	sc := s.Scaled(0.5)
	if sc.Fabric.W != 8 || sc.Fabric.H != 8 {
		t.Fatalf("scaled fabric %v, want 8x8", sc.Fabric)
	}
	du := sc.Utilization() - s.Utilization()
	if du > 0.05 || du < -0.05 {
		t.Fatalf("utilization drifted: %.2f -> %.2f", s.Utilization(), sc.Utilization())
	}
	if s.Scaled(1.0).TotalOps != s.TotalOps {
		t.Fatal("scale 1.0 must be identity")
	}
}

func TestRunSmallBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow benchmark run")
	}
	s, _ := SpecByName("B1")
	r, err := Run(context.Background(), s, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.FreezeIncrease < 1 || r.RotateIncrease < r.FreezeIncrease-1e-9 {
		t.Fatalf("MTTF increases wrong: freeze %.2f rotate %.2f", r.FreezeIncrease, r.RotateIncrease)
	}
	if r.FreezeCPD > r.OrigCPD+1e-9 || r.RotateCPD > r.OrigCPD+1e-9 {
		t.Fatalf("CPD regressed: %.3f -> %.3f/%.3f", r.OrigCPD, r.FreezeCPD, r.RotateCPD)
	}
	tbl := FormatTableI([]*Result{r})
	if len(tbl) == 0 {
		t.Fatal("empty table")
	}
	fig := FormatFig5([]*Result{r})
	if len(fig) == 0 {
		t.Fatal("empty figure")
	}
}

func TestRunGreedyShowsTimingDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow run")
	}
	s, _ := SpecByName("B10")
	g, err := RunGreedy(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy must level at least as well as the MILP (it ignores delay),
	// and the MILP must respect the original CPD.
	if g.GreedyMaxStress > g.MILPMaxStress+1e-9 {
		t.Fatalf("greedy leveled worse (%.3f) than MILP (%.3f)?", g.GreedyMaxStress, g.MILPMaxStress)
	}
	if g.MILPCPD > g.OrigCPD+1e-9 {
		t.Fatalf("MILP broke timing")
	}
}
