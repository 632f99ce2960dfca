package core_test

import (
	"context"
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
}

// runViews runs one Remap (or, with both, RemapBoth, whose arms share
// every sink; st then sums the arms) with all four views attached.
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
	opts.Trace = obs.New().WithMetrics(reg)
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
	return views{st: st, reg: reg, j: rec.Snapshot(), prog: rep.Latest()}
}

func (v views) counter(name string) int64 { return v.reg.Counter(name).Value() }

// TestSolverViewsAgree pins that Stats, the metrics registry, the
// progress cell and the flight journal describe the same solver work,
// including a Rotate run that also ran its Freeze fallback.
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
		// Warm-started Step-1 MILP probes reject some snapshots, so the
		// reject views are compared on nonzero counts.
		{"B4-freeze-warm-step1milp", "B4", core.Freeze, false, true},
		// Two concurrent arms writing into one set of sinks.
		{"B1-both", "B1", core.Rotate, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := runViews(t, tc.bench, tc.mode, tc.both, func(o *core.Options) {
				o.WarmHeuristics, o.Step1MILP = tc.warm, tc.warm
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
		})
	}
}
