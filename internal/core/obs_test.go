package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"agingfp/internal/dfg"
	"agingfp/internal/obs"
)

// traceEvent mirrors the JSONL sink's wire format (see obs/sinks.go);
// parent and instant are omitted when zero/false.
type traceEvent struct {
	Name    string                 `json:"name"`
	ID      uint64                 `json:"id"`
	Parent  uint64                 `json:"parent"`
	StartUs int64                  `json:"start_us"`
	DurUs   int64                  `json:"dur_us"`
	Instant bool                   `json:"instant"`
	Attrs   map[string]interface{} `json:"attrs"`
}

// TestRemapObservability is the end-to-end acceptance check for the
// tracing layer: a traced Remap must produce a parseable JSONL stream
// whose root span covers (within tolerance) Stats.Elapsed, whose child
// spans nest inside their parents, and whose metric counters agree with
// the Stats the flow reports.
func TestRemapObservability(t *testing.T) {
	skipUnderRace(t)
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)

	var buf bytes.Buffer
	js := obs.NewJSONLSink(&buf)
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Mode = Freeze // no rotation fallback: one run, one root span
	opts.Trace = obs.New(js).WithMetrics(reg)

	r, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	checkRemapInvariants(t, d, m0, r)
	if err := js.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// Every line must parse, IDs must be unique, and parents resolve.
	var events []traceEvent
	byID := map[uint64]traceEvent{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e traceEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if _, dup := byID[e.ID]; dup && !e.Instant {
			t.Fatalf("duplicate span id %d (%s)", e.ID, e.Name)
		}
		events = append(events, e)
		byID[e.ID] = e
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}

	var root *traceEvent
	for i := range events {
		if events[i].Name == "core.remap" {
			if root != nil {
				t.Fatal("more than one core.remap root span")
			}
			root = &events[i]
		}
	}
	if root == nil {
		t.Fatal("no core.remap root span")
	}
	if root.Parent != 0 {
		t.Fatalf("root span has parent %d", root.Parent)
	}

	// Parent resolution and interval nesting. The root is emitted last
	// (spans emit at End), so resolve against the full ID set.
	for _, e := range events {
		if e.Parent == 0 {
			continue
		}
		p, ok := byID[e.Parent]
		if !ok {
			t.Fatalf("event %s (id %d) has unknown parent %d", e.Name, e.ID, e.Parent)
		}
		const slopUs = 2000 // clock reads are not atomic with span bookkeeping
		if e.StartUs < p.StartUs-slopUs || e.StartUs+e.DurUs > p.StartUs+p.DurUs+slopUs {
			t.Errorf("span %s [%d,%d] escapes parent %s [%d,%d]",
				e.Name, e.StartUs, e.StartUs+e.DurUs, p.Name, p.StartUs, p.StartUs+p.DurUs)
		}
	}

	// The root span and Stats.Elapsed time the same run; the root opens
	// slightly later (after input validation and the initial STA), so it
	// must be contained in Elapsed and close to it.
	rootDur := time.Duration(root.DurUs) * time.Microsecond
	if rootDur > r.Stats.Elapsed+10*time.Millisecond {
		t.Errorf("root span %v exceeds Stats.Elapsed %v", rootDur, r.Stats.Elapsed)
	}
	if gap := r.Stats.Elapsed - rootDur; gap > 500*time.Millisecond {
		t.Errorf("root span %v trails Stats.Elapsed %v by %v", rootDur, r.Stats.Elapsed, gap)
	}

	// Counters must agree exactly with the Stats the flow printed.
	for _, c := range []struct {
		name string
		want int
	}{
		{"agingfp_lp_solves_total", r.Stats.LPSolves},
		{"agingfp_simplex_iters_total", r.Stats.SimplexIters},
		{"agingfp_st_probes_total", r.Stats.STProbes},
		{"agingfp_outer_iterations_total", r.Stats.OuterIterations},
		{"agingfp_warm_starts_total", r.Stats.WarmStarts},
	} {
		if got := reg.Counter(c.name).Value(); got != int64(c.want) {
			t.Errorf("%s = %d, want %d (Stats)", c.name, got, c.want)
		}
	}

	// Warm-start rejects are counted per reason (from the reason the LP
	// solution reports); the labeled family must sum to the Stats total.
	var rejects int64
	for _, reason := range []string{"dim_mismatch", "stale_basis", "singular"} {
		rejects += reg.Counter(obs.Labeled(WarmRejectsMetric, "reason", reason)).Value()
	}
	if rejects != int64(r.Stats.WarmStartRejects) {
		t.Errorf("%s (summed over reasons) = %d, want %d (Stats)",
			WarmRejectsMetric, rejects, r.Stats.WarmStartRejects)
	}

	// Phase gauges mirror the Stats phase durations (same run, same
	// registry, so they must match to float precision).
	for _, g := range []struct {
		name string
		want time.Duration
	}{
		{`agingfp_phase_seconds{phase="step1"}`, r.Stats.Step1Time},
		{`agingfp_phase_seconds{phase="rotate"}`, r.Stats.RotateTime},
		{`agingfp_phase_seconds{phase="step2"}`, r.Stats.Step2Time},
		{`agingfp_phase_seconds{phase="timing"}`, r.Stats.TimingTime},
	} {
		got := reg.Gauge(g.name).Value()
		if diff := got - g.want.Seconds(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s = %v, want %v", g.name, got, g.want.Seconds())
		}
	}

	// Phase durations are disjoint slices of the run: their sum cannot
	// exceed the run's wall clock.
	phaseSum := r.Stats.Step1Time + r.Stats.RotateTime + r.Stats.Step2Time + r.Stats.TimingTime
	if phaseSum > r.Stats.Elapsed+10*time.Millisecond {
		t.Errorf("phase sum %v exceeds Elapsed %v", phaseSum, r.Stats.Elapsed)
	}
}

// TestRemapUntracedNoTraceState pins that an untraced run leaves no
// observability residue: nil tracer, nil registry, zero Options cost.
func TestRemapUntracedStatsPhases(t *testing.T) {
	skipUnderRace(t)
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)
	opts := DefaultOptions()
	opts.Mode = Freeze
	r, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	// Phase accounting works without a tracer: the flow did LP work, so
	// Step2Time must be nonzero and bounded by the wall clock.
	if r.Stats.LPSolves > 0 && r.Stats.Step2Time <= 0 {
		t.Error("Step2Time not accrued on an untraced run")
	}
	if r.Stats.Step2Time > r.Stats.Elapsed {
		t.Errorf("Step2Time %v exceeds Elapsed %v", r.Stats.Step2Time, r.Stats.Elapsed)
	}
}
