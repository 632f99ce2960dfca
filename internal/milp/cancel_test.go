package milp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"agingfp/internal/lp"
)

// hardProblem builds a 0/1 knapsack-style MILP that needs many
// branch-and-bound nodes, so cancellation can land mid-search.
func hardProblem(rng *rand.Rand, n int) *Problem {
	p := lp.NewProblem()
	var ints []int
	var val []float64
	for j := 0; j < n; j++ {
		ints = append(ints, p.AddVar(-(1+rng.Float64()), 0, 1))
		val = append(val, 1+rng.Float64()*3)
	}
	p.MustAddRow(lp.LE, float64(n)*0.7, ints, val)
	return &Problem{LP: p, IntVars: ints}
}

func TestSolveCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, hardProblem(rand.New(rand.NewSource(1)), 20), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Status != Canceled {
		t.Fatalf("want partial result with Status Canceled, got %+v", res)
	}
	if res.Nodes != 0 {
		t.Fatalf("pre-start cancellation expanded %d nodes", res.Nodes)
	}
}

func TestSolveCanceledMidSearch(t *testing.T) {
	prob := hardProblem(rand.New(rand.NewSource(9)), 35)

	ref, err := Solve(context.Background(), prob, Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Nodes < 10 {
		t.Skipf("reference search took only %d nodes; problem too easy", ref.Nodes)
	}

	// Cancel after a handful of node-level polls; the search must stop
	// promptly with a partial result and must not claim infeasibility.
	ctx := &countingCtx{Context: context.Background(), fuse: 5}
	res, err := Solve(ctx, prob, Options{MaxNodes: 50000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || res.Status != Canceled {
		t.Fatalf("want partial result with Status Canceled, got %+v", res)
	}
	if res.Nodes >= ref.Nodes {
		t.Fatalf("canceled search expanded %d nodes, full search %d", res.Nodes, ref.Nodes)
	}

	// A later, uncanceled solve of the same problem is unaffected.
	again, err := Solve(context.Background(), prob, Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != ref.Status || again.Obj != ref.Obj || again.Nodes != ref.Nodes {
		t.Fatalf("solve after cancellation diverged: %+v vs %+v", again, ref)
	}
}

func TestNodeLimitStatus(t *testing.T) {
	prob := hardProblem(rand.New(rand.NewSource(4)), 40)
	res, err := Solve(context.Background(), prob, Options{MaxNodes: 1, StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	// One node cannot both find an incumbent and prove anything; the
	// status must be NodeLimit or Feasible, never Infeasible/Optimal
	// claims a single relaxation cannot support.
	if res.Status == Infeasible {
		t.Fatalf("node-limited search claimed infeasibility")
	}
	if !res.hasIncumbent() && res.Status != NodeLimit {
		t.Fatalf("budget exhausted with no incumbent: want NodeLimit, got %v", res.Status)
	}
}

func TestMILPOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options must validate: %v", err)
	}
	for _, bad := range []Options{
		{MaxNodes: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("options %+v accepted", bad)
		}
	}
	if _, err := Solve(context.Background(), hardProblem(rand.New(rand.NewSource(2)), 5), Options{MaxNodes: -1}); err == nil {
		t.Fatal("Solve accepted invalid options")
	}
}

// hasIncumbent reports whether the result carries a solution vector.
func (r *Result) hasIncumbent() bool { return len(r.X) > 0 }

// countingCtx reports Canceled after its Err has been polled fuse
// times, making mid-search cancellation deterministic without timers.
type countingCtx struct {
	context.Context
	polls int
	fuse  int
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.polls > c.fuse {
		return context.Canceled
	}
	return nil
}

func (c *countingCtx) Done() <-chan struct{} { return c.Context.Done() }

func (c *countingCtx) Deadline() (time.Time, bool) { return c.Context.Deadline() }
