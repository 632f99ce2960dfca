package bench

import (
	"context"
	"testing"

	"agingfp/internal/milp"
)

func TestRunFig2b(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow run")
	}
	s, _ := SpecByName("B1")
	f, err := RunFig2b(context.Background(), s, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.RemappedMTTF < f.OrigMTTF {
		t.Fatalf("re-mapping shortened MTTF: %g -> %g", f.OrigMTTF, f.RemappedMTTF)
	}
	if len(f.Hours) != len(f.Orig) || len(f.Hours) != len(f.Remapped) {
		t.Fatal("ragged trajectories")
	}
	// Monotone non-decreasing shift curves; re-mapped always at or below
	// the original at the same time.
	for i := 1; i < len(f.Hours); i++ {
		if f.Orig[i] < f.Orig[i-1] || f.Remapped[i] < f.Remapped[i-1] {
			t.Fatal("non-monotone Vth trajectory")
		}
		if f.Remapped[i] > f.Orig[i]+1e-12 {
			t.Fatalf("re-mapped ages faster at sample %d", i)
		}
	}
}

func TestRunBudgetAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow run")
	}
	s, _ := SpecByName("B1")
	ba, err := RunBudgetAblation(context.Background(), s, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Both budgets must respect their own guarantee.
	if ba.PaperBudgetCPD > ba.OrigCPD+1e-9 {
		t.Fatalf("paper budget broke CPD: %.3f -> %.3f", ba.OrigCPD, ba.PaperBudgetCPD)
	}
	if ba.ClockBudgetCPD > ba.ClockNs+1e-9 {
		t.Fatalf("clock budget broke the clock: %.3f", ba.ClockBudgetCPD)
	}
	// The relaxed budget never does worse (it strictly contains the
	// paper's feasible set).
	if ba.ClockBudgetIncrease < ba.PaperBudgetIncrease-0.15 {
		t.Fatalf("clock budget markedly worse: %.2f vs %.2f",
			ba.ClockBudgetIncrease, ba.PaperBudgetIncrease)
	}
}

func TestRunScalingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full-flow run")
	}
	pts, err := RunScaling(context.Background(), []int{20, 32}, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// The monolithic search is deterministic for a seed: pinning its
	// outcome and node count catches any change to the branch-and-bound
	// rule, child order, or pruning.
	want := []struct {
		status milp.Status
		nodes  int
	}{{milp.Optimal, 15}, {milp.Optimal, 104}}
	for i, p := range pts {
		if !p.TwoStepOK {
			t.Fatalf("two-step failed at %d ops", p.Ops)
		}
		if p.MonolithicStatus != want[i].status || p.MonolithicNodes != want[i].nodes {
			t.Errorf("%d ops: monolithic %v/%d nodes, want %v/%d",
				p.Ops, p.MonolithicStatus, p.MonolithicNodes, want[i].status, want[i].nodes)
		}
	}
}
