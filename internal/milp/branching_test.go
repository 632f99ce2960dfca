package milp

import (
	"context"
	"math"
	"testing"

	"agingfp/internal/lp"
)

func TestIntegerGeneralVariables(t *testing.T) {
	// Non-binary integers: maximize x+y, x,y integer, x+y <= 7.3,
	// x <= 4.5 -> x=4, y=3.
	p := lp.NewProblem()
	x := p.AddVar(-1, 0, 4.5)
	y := p.AddVar(-1, 0, 10)
	p.MustAddRow(lp.LE, 7.3, []int{x, y}, []float64{1, 1})
	res, err := Solve(context.Background(), &Problem{LP: p, IntVars: []int{x, y}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Obj-(-7)) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal -7", res.Status, res.Obj)
	}
	for _, j := range []int{x, y} {
		if math.Abs(res.X[j]-math.Round(res.X[j])) > 1e-6 {
			t.Fatalf("x[%d]=%g not integral", j, res.X[j])
		}
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// One binary gate, one continuous flow: min -f, f <= 3*b, b binary,
	// f <= 2.5 -> b=1, f=2.5.
	p := lp.NewProblem()
	b := p.AddVar(0.1, 0, 1) // small cost on the gate
	f := p.AddVar(-1, 0, 2.5)
	p.MustAddRow(lp.LE, 0, []int{f, b}, []float64{1, -3})
	res, err := Solve(context.Background(), &Problem{LP: p, IntVars: []int{b}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.X[b]-1) > 1e-6 || math.Abs(res.X[f]-2.5) > 1e-6 {
		t.Fatalf("b=%g f=%g, want 1, 2.5", res.X[b], res.X[f])
	}
}
