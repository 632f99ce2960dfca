package lp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// slowProblem builds a dense equality-constrained LP that is feasible
// by construction (RHS from a random interior point) but needs a full
// phase-1/phase-2 run of several hundred simplex iterations —
// comfortably more than one ctxCheckIters interval.
func slowProblem(rng *rand.Rand, n int) *Problem {
	p := NewProblem()
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddVar(rng.Float64()-0.5, 0, 10)
		x0[j] = 10 * rng.Float64()
	}
	for i := 0; i < n; i++ {
		idx := make([]int, 0, n/2)
		val := make([]float64, 0, n/2)
		rhs := 0.0
		for j := 0; j < n; j++ {
			if (i+j*j)%3 == 0 {
				v := 1 + rng.Float64()
				idx = append(idx, j)
				val = append(val, v)
				rhs += v * x0[j]
			}
		}
		p.MustAddRow(EQ, rhs, idx, val)
	}
	return p
}

func TestSolveCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := slowProblem(rand.New(rand.NewSource(1)), 20)
	sol, err := Solve(ctx, p, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (sol %v)", err, sol)
	}
	if sol != nil {
		t.Fatalf("canceled solve returned a solution: %+v", sol)
	}
}

func TestSolveCanceledMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := slowProblem(rng, 120)

	// Reference: the uncanceled solve must need more than one check
	// interval, or this test would not exercise the mid-solve path.
	ref, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iters <= ctxCheckIters {
		t.Skipf("reference solve took only %d iters; problem too easy", ref.Iters)
	}

	// cancelAfterIters trips after a fixed number of Err polls, making
	// the test deterministic (a wall-clock timer would race the solver).
	ctx := &countingCtx{Context: context.Background(), fuse: 3}
	_, err = Solve(ctx, p, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// The canceled attempt must not have corrupted anything: the same
	// problem solves identically afterwards.
	again, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != ref.Status || again.Obj != ref.Obj || again.Iters != ref.Iters {
		t.Fatalf("solve after cancellation diverged: %+v vs %+v", again, ref)
	}
}

func TestWarmStartSurvivesCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := slowProblem(rng, 80)
	root, err := Solve(context.Background(), p, Options{})
	if err != nil || root.Status != Optimal {
		t.Fatalf("root solve: %v %v", root, err)
	}

	// Tighten a bound and reoptimize warm — reference run first.
	q := p.CloneBounds()
	q.SetBounds(3, 0, 0.5)
	ref, err := Solve(context.Background(), q, Options{WarmStart: root.Basis})
	if err != nil {
		t.Fatal(err)
	}

	// A canceled warm solve must return ctx.Err() and leave the basis
	// snapshot reusable: re-running warm afterwards matches the
	// reference exactly.
	ctx := &countingCtx{Context: context.Background(), fuse: 1}
	if _, err := Solve(ctx, q, Options{WarmStart: root.Basis}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	again, err := Solve(context.Background(), q, Options{WarmStart: root.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != ref.Status || again.Obj != ref.Obj || again.Warm != ref.Warm || again.Iters != ref.Iters {
		t.Fatalf("warm solve after cancellation diverged: %+v vs %+v", again, ref)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options must validate: %v", err)
	}
	if err := (Options{MaxIter: -1}).Validate(); err == nil {
		t.Fatal("negative MaxIter accepted")
	}
	p := NewProblem()
	p.AddVar(1, 0, 1)
	p.MustAddRow(LE, 1, []int{0}, []float64{1})
	if _, err := Solve(context.Background(), p, Options{MaxIter: -5}); err == nil {
		t.Fatal("Solve accepted invalid options")
	}
}

// countingCtx reports Canceled after its Err has been polled fuse
// times; Deadline/Done/Value delegate to the parent. It makes
// mid-solve cancellation deterministic without timers.
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
