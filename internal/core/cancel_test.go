package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/dfg"
	"agingfp/internal/milp"
)

// atomicCountingCtx reports Canceled after Err has been polled fuse
// times, making mid-flow cancellation deterministic without timers. The
// counter is atomic because Remap shares the context with parallel
// scoring workers.
type atomicCountingCtx struct {
	context.Context
	polls atomic.Int64
	fuse  int64
}

func (c *atomicCountingCtx) Err() error {
	if c.polls.Add(1) > c.fuse {
		return context.Canceled
	}
	return nil
}

func (c *atomicCountingCtx) Done() <-chan struct{} { return c.Context.Done() }

func (c *atomicCountingCtx) Deadline() (time.Time, bool) { return c.Context.Deadline() }

func TestRemapCanceledBeforeStart(t *testing.T) {
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := Remap(ctx, d, m0, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled Remap must still return the partial result")
	}
	if res.Status != milp.Canceled {
		t.Fatalf("Status = %v, want Canceled", res.Status)
	}
	// The partial result falls back to the baseline floorplan: callers
	// that ignore the error still hold a valid mapping.
	if err := arch.ValidateMapping(d, res.Mapping); err != nil {
		t.Fatalf("partial result mapping invalid: %v", err)
	}
	if res.Improved {
		t.Fatal("canceled run must not claim improvement")
	}
}

func TestRemapCanceledMidSearch(t *testing.T) {
	d, m0 := buildSmall(t, dfg.FIR(8), 4, 4)
	opts := DefaultOptions()

	// Reference run: how many context polls does the full flow make?
	ref := &atomicCountingCtx{Context: context.Background(), fuse: 1 << 60}
	refRes, err := Remap(ref, d, m0, opts)
	if err != nil {
		t.Fatalf("reference remap: %v", err)
	}
	total := ref.polls.Load()
	if total < 10 {
		t.Skipf("flow polled ctx only %d times; too coarse to cancel mid-search", total)
	}

	// Cancel halfway: the flow must stop promptly, return the context's
	// error, and hand back a partial-but-valid result.
	ctx := &atomicCountingCtx{Context: context.Background(), fuse: total / 2}
	res, err := Remap(ctx, d, m0, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Status != milp.Canceled {
		t.Fatalf("result %+v, want Status Canceled", res)
	}
	if err := arch.ValidateMapping(d, res.Mapping); err != nil {
		t.Fatalf("partial result mapping invalid: %v", err)
	}

	// A canceled run must not have corrupted any state a later solve
	// depends on: rerunning uncanceled reproduces the reference exactly.
	again, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatalf("re-run after cancellation: %v", err)
	}
	if len(again.Mapping) != len(refRes.Mapping) {
		t.Fatalf("re-run mapping size %d vs %d", len(again.Mapping), len(refRes.Mapping))
	}
	for i := range again.Mapping {
		if again.Mapping[i] != refRes.Mapping[i] {
			t.Fatalf("re-run after cancellation diverged at op %d: %v vs %v",
				i, again.Mapping[i], refRes.Mapping[i])
		}
	}
}

func TestRemapBothCanceled(t *testing.T) {
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RemapBoth(ctx, d, m0, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"mode", func(o *Options) { o.Mode = Mode(9) }},
		{"path-threshold", func(o *Options) { o.PathThresholdFrac = 0 }},
		{"round-threshold", func(o *Options) { o.RoundThreshold = 0.5 }},
		{"max-paths", func(o *Options) { o.MaxPaths = -1 }},
		{"delta-frac", func(o *Options) { o.DeltaFrac = 1.5 }},
		{"binary-steps", func(o *Options) { o.BinarySearchSteps = -2 }},
		{"time-limit", func(o *Options) { o.TimeLimit = -time.Second }},
		{"rotation-restarts", func(o *Options) { o.RotationRestarts = -1 }},
		{"crit-eps", func(o *Options) { o.CritEpsNs = -0.1 }},
		{"repair-rounds", func(o *Options) { o.PathRepairRounds = -1 }},
		{"cpd-budget", func(o *Options) { o.CPDBudgetNs = -1 }},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, o)
		}
	}

	// Remap itself rejects invalid options before doing any work.
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)
	bad := DefaultOptions()
	bad.RoundThreshold = 2
	if _, err := Remap(context.Background(), d, m0, bad); err == nil {
		t.Fatal("Remap accepted invalid options")
	}
}
