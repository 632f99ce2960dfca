package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"agingfp/internal/bench"
	"agingfp/internal/core"
	"agingfp/internal/flight"
	"agingfp/internal/obs"
	"agingfp/internal/place"
)

// views is one job's solver work as each view reports it.
type views struct {
	st   core.Stats
	reg  *obs.Registry
	j    *flight.Journal
	prog obs.Progress
	// spans are the completed spans (no instant events) in the order the
	// sink received them.
	spans []spanLine
}

// spanLine is one JSONL sink line.
type spanLine struct {
	Name    string                 `json:"name"`
	Instant bool                   `json:"instant"`
	Attrs   map[string]interface{} `json:"attrs"`
}

// runViews runs one Remap (or, with both, RemapBoth, whose arms share
// every sink; st then sums the arms) with all five views attached.
func runViews(t *testing.T, name string, mode core.Mode, both bool, tweak func(*core.Options)) views {
	t.Helper()
	spec, ok := bench.SpecByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	d, err := bench.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	opts.Mode = mode
	reg := obs.NewRegistry()
	var trace bytes.Buffer
	js := obs.NewJSONLSink(&trace)
	opts.Trace = obs.New(js).WithMetrics(reg)
	rec := flight.NewRecorder(0)
	opts.Flight = rec
	if tweak != nil {
		tweak(&opts)
	}
	rep := obs.NewReporter()
	ctx := obs.WithReporter(context.Background(), rep)
	var st core.Stats
	if both {
		fr, ro, err := core.RemapBoth(ctx, d, m0, opts)
		if err != nil {
			t.Fatalf("%s both: %v", name, err)
		}
		st = fr.Stats
		st.STProbes += ro.Stats.STProbes
		st.OuterIterations += ro.Stats.OuterIterations
		st.LPSolves += ro.Stats.LPSolves
		st.SimplexIters += ro.Stats.SimplexIters
		st.WarmStartRejects += ro.Stats.WarmStartRejects
	} else {
		r, err := core.Remap(ctx, d, m0, opts)
		if err != nil {
			t.Fatalf("%s %v: %v", name, mode, err)
		}
		st = r.Stats
	}
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	v := views{st: st, reg: reg, j: rec.Snapshot(), prog: rep.Latest()}
	for dec := json.NewDecoder(&trace); dec.More(); {
		var l spanLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("bad trace line: %v", err)
		}
		if !l.Instant {
			v.spans = append(v.spans, l)
		}
	}
	return v
}

// checkSpans compares the span view with Stats and the journal: one
// core.step1.probe span per Step-1 probe, one core.probe span per outer
// iteration, and core.batch statuses equal to the batch events' — in
// order for one run, as multisets for RemapBoth's interleaved arms.
func (v views) checkSpans(t *testing.T, both bool) {
	t.Helper()
	count := map[string]int{}
	var spanStatus, eventStatus []string
	for _, s := range v.spans {
		count[s.Name]++
		if s.Name == "core.batch" {
			status, _ := s.Attrs["status"].(string)
			spanStatus = append(spanStatus, status)
		}
	}
	if v.j.Dropped > 0 {
		t.Fatalf("journal dropped %d events", v.j.Dropped)
	}
	for _, e := range v.j.Events {
		if e.Kind == flight.KindBatch {
			eventStatus = append(eventStatus, e.Status)
		}
	}
	if count["core.step1.probe"] != v.st.STProbes {
		t.Errorf("core.step1.probe spans = %d, Stats.STProbes = %d", count["core.step1.probe"], v.st.STProbes)
	}
	if count["core.probe"] != v.st.OuterIterations {
		t.Errorf("core.probe spans = %d, Stats.OuterIterations = %d", count["core.probe"], v.st.OuterIterations)
	}
	if both {
		sort.Strings(spanStatus)
		sort.Strings(eventStatus)
	}
	if len(spanStatus) != len(eventStatus) {
		t.Fatalf("%d core.batch spans, %d batch events", len(spanStatus), len(eventStatus))
	}
	for i := range spanStatus {
		if spanStatus[i] != eventStatus[i] {
			t.Fatalf("core.batch span %d status %q, batch event says %q", i, spanStatus[i], eventStatus[i])
		}
	}
}

func (v views) counter(name string) int64 { return v.reg.Counter(name).Value() }

// TestSolverViewsAgree pins that Stats, the metrics registry, the
// progress cell, the flight journal and the spans describe the same
// solver work, including a Rotate run that also ran its Freeze fallback.
func TestSolverViewsAgree(t *testing.T) {
	t.Run("forced-fallback", func(t *testing.T) {
		// A 1 ns probe budget times every probe out, so Rotate finds
		// nothing and runs its Freeze fallback, which finds nothing either.
		v := runViews(t, "B1", core.Rotate, false, func(o *core.Options) { o.TimeLimit = time.Nanosecond })
		st := v.st
		if st.OuterIterations == 0 || st.ProbeTimeouts != st.OuterIterations {
			t.Fatalf("want every probe timed out, got %d probes, %d timeouts", st.OuterIterations, st.ProbeTimeouts)
		}
		for _, c := range []struct {
			view      string
			got, want int64
		}{
			{"journal probe events", v.j.Aggregates.EventCounts[flight.KindProbe], int64(st.OuterIterations)},
			{"agingfp_outer_iterations_total", v.counter("agingfp_outer_iterations_total"), int64(st.OuterIterations)},
			{"progress RelaxRounds", int64(v.prog.RelaxRounds), int64(st.OuterIterations)},
			{"journal step1 probe events", v.j.Aggregates.EventCounts[flight.KindStep1Probe], int64(st.STProbes)},
			{"agingfp_st_probes_total", v.counter("agingfp_st_probes_total"), int64(st.STProbes)},
			{"progress STProbes", int64(v.prog.STProbes), int64(st.STProbes)},
		} {
			if c.got != c.want {
				t.Errorf("%s = %d, Stats says %d", c.view, c.got, c.want)
			}
		}
		v.checkSpans(t, false)
	})

	for _, tc := range []struct {
		name  string
		bench string
		mode  core.Mode
		both  bool
		warm  bool
	}{
		{"B1-rotate", "B1", core.Rotate, false, false},
		{"B4-freeze", "B4", core.Freeze, false, false},
		// Warm-started relaxations and dives reject some snapshots, so
		// the reject views are compared on nonzero counts.
		{"B13-freeze-warm", "B13", core.Freeze, false, true},
		// Two concurrent arms writing into one set of sinks.
		{"B1-both", "B1", core.Rotate, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := runViews(t, tc.bench, tc.mode, tc.both, func(o *core.Options) {
				o.WarmHeuristics = tc.warm
				o.Flight.EnableKernel(0)
			})
			st := v.st
			if v.j.Kernel == nil {
				t.Fatal("armed recorder has no kernel section")
			}
			var journalRejects, metricRejects int64
			for _, reason := range []string{"dim_mismatch", "stale_basis", "singular"} {
				journalRejects += v.j.Aggregates.WarmRejects[reason]
				metricRejects += v.counter(obs.Labeled(core.WarmRejectsMetric, "reason", reason))
			}
			if tc.warm && st.WarmStartRejects == 0 {
				t.Fatal("warm run rejected no warm start; the reject views go untested")
			}
			for _, c := range []struct {
				view      string
				got, want int64
			}{
				{"journal LPSolves", v.j.Aggregates.LPSolves, int64(st.LPSolves)},
				{"kernel Solves", v.j.Kernel.Solves, int64(st.LPSolves)},
				{"agingfp_lp_solves_total", v.counter("agingfp_lp_solves_total"), int64(st.LPSolves)},
				{"progress LPSolves", v.prog.LPSolves, int64(st.LPSolves)},
				{"journal SimplexIters", v.j.Aggregates.SimplexIters, int64(st.SimplexIters)},
				{"kernel Iters", v.j.Kernel.Iters, int64(st.SimplexIters)},
				{"agingfp_simplex_iters_total", v.counter("agingfp_simplex_iters_total"), int64(st.SimplexIters)},
				{"progress SimplexIters", v.prog.SimplexIters, int64(st.SimplexIters)},
				{"journal WarmRejects", journalRejects, int64(st.WarmStartRejects)},
				{"agingfp_lp_warmstart_rejects_total", metricRejects, int64(st.WarmStartRejects)},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, Stats says %d", c.view, c.got, c.want)
				}
			}
			v.checkSpans(t, tc.both)
		})
	}
}
