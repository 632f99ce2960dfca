package bench

import (
	"strings"
	"testing"
	"time"

	"agingfp/internal/arch"
)

// fakeResult builds a Result without running the flow.
func fakeResult(name string, ctx, fab int, band Band, frz, rot float64) *Result {
	spec := Spec{
		Name: name, Contexts: ctx, Fabric: arch.Fabric{W: fab, H: fab},
		TotalOps: ctx * fab, Band: band, PaperFreeze: frz - 0.1, PaperRotate: rot - 0.1,
	}
	return &Result{
		Spec:           spec,
		RunOps:         spec.TotalOps,
		RunFabric:      spec.Fabric,
		FreezeIncrease: frz,
		RotateIncrease: rot,
		OrigCPD:        4.5,
		FreezeCPD:      4.5,
		RotateCPD:      4.4,
		Elapsed:        time.Second,
	}
}

func TestFormatTableILayout(t *testing.T) {
	rs := []*Result{
		fakeResult("B1", 4, 4, Low, 2.0, 2.1),
		fakeResult("B10", 4, 4, Medium, 1.7, 1.8),
		fakeResult("B19", 4, 4, High, 1.2, 1.5),
		fakeResult("B4", 8, 4, Low, 2.7, 2.9),
	}
	out := FormatTableI(rs)
	for _, want := range []string{"B1", "B10", "B19", "B4", "Avg.", "Overall rotate average"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Per-band averages: low band has B1 (2.1) and B4 (2.9) -> rotate 2.50.
	if !strings.Contains(out, "rotate 2.50") {
		t.Errorf("low-band rotate average wrong:\n%s", out)
	}
}

// TestGroupAverages checks the per-band freeze and rotate averages of Table
// I, a band with no rows, and the overall rotate average (3+5+1.5)/3.
func TestGroupAverages(t *testing.T) {
	out := FormatTableI([]*Result{
		fakeResult("B1", 4, 4, Low, 2, 3),
		fakeResult("B4", 8, 4, Low, 4, 5),
		fakeResult("B19", 4, 4, High, 1, 1.5),
	})
	for _, want := range []string{
		"| freeze 3.00 rotate 4.00 (n=2) | - | freeze 1.00 rotate 1.50 (n=1) |",
		"Overall rotate average: 3.17x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFig5Layout(t *testing.T) {
	rs := []*Result{
		fakeResult("B1", 4, 4, Low, 2.0, 2.1),
		fakeResult("B10", 4, 4, Medium, 1.7, 1.8),
		fakeResult("B19", 4, 4, High, 1.2, 1.5),
	}
	out := FormatFig5(rs)
	if !strings.Contains(out, "C4F4") {
		t.Fatalf("missing config label:\n%s", out)
	}
	if strings.Count(out, "#") == 0 {
		t.Fatal("missing bars")
	}
	// All three bands appear on the C4F4 row.
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "C4F4") && strings.Contains(l, "(") {
			line = l
			break
		}
	}
	if !strings.Contains(line, "2.10") || !strings.Contains(line, "1.80") || !strings.Contains(line, "1.50") {
		t.Fatalf("band values missing from %q", line)
	}
}

func TestFormatFig2b(t *testing.T) {
	f := &Fig2b{
		Hours:        []float64{0, 100, 200},
		Orig:         []float64{0, 0.08, 0.12},
		Remapped:     []float64{0, 0.05, 0.08},
		OrigMTTF:     150,
		RemappedMTTF: 260,
		FailFrac:     0.10,
	}
	out := FormatFig2b(f)
	if !strings.Contains(out, "original fails") {
		t.Fatalf("missing failure marker:\n%s", out)
	}
	if !strings.Contains(out, "1.73x") {
		t.Fatalf("missing increase ratio:\n%s", out)
	}
}

func TestFormatScalingAndGreedy(t *testing.T) {
	sc := FormatScaling([]ScalingPoint{{Ops: 24, TwoStep: time.Second, TwoStepOK: true,
		Monolithic: 5 * time.Second, MonolithicOK: false, MonolithicNodes: 4000}})
	if !strings.Contains(sc, "24") || !strings.Contains(sc, "4000") {
		t.Fatalf("scaling format:\n%s", sc)
	}
	gr := FormatGreedy([]*GreedyComparison{{
		Spec: Spec{Name: "B1"}, GreedyMaxStress: 0.6, GreedyCPD: 5.4,
		MILPMaxStress: 0.7, MILPCPD: 4.4, OrigMaxStress: 1.2, OrigCPD: 4.5,
		CPDViolation: true,
	}})
	if !strings.Contains(gr, "B1") || !strings.Contains(gr, "true") {
		t.Fatalf("greedy format:\n%s", gr)
	}
	ba := FormatBudgetAblation([]*BudgetAblation{{
		Spec: Spec{Name: "B1"}, OrigCPD: 4.2, ClockNs: 5,
		PaperBudgetIncrease: 1.5, PaperBudgetCPD: 4.2,
		ClockBudgetIncrease: 2.2, ClockBudgetCPD: 4.9,
	}})
	if !strings.Contains(ba, "B1") || !strings.Contains(ba, "2.20x") {
		t.Fatalf("budget format:\n%s", ba)
	}
}

func TestWriteCSV(t *testing.T) {
	rs := []*Result{fakeResult("B1", 4, 4, Low, 2.0, 2.1)}
	var b strings.Builder
	if err := WriteCSV(&b, rs); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name,contexts,") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "B1,4,4x4,") {
		t.Fatalf("bad row: %s", lines[1])
	}
}
