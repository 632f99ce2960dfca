package main

import (
	"encoding/json"
	"fmt"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/canon"
	"agingfp/internal/core"
	"agingfp/internal/flight"
	"agingfp/internal/nbti"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the floorplanner sees, reported by
// every untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_ms_geomean", "ms"},
	{"op_ms_geomean", "ms"},
	{"op_ms_p90", "ms"},
	{"mttf_gain_geomean", "x"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every traced
// run of every workload. README.md maps each to the end-to-end metric
// and workload it should move.
var perLayer = []metricDef{
	{"bench.synthesize_us", "us"},
	{"place.place_ms", "ms"},
	{"canon.canonicalize_us", "us"},
	{"arch.decode_us", "us"},
	{"timing.analyze_us", "us"},
	{"timing.paths_us", "us"},
	{"core.evaluate_us", "us"},
	{"thermal.solve_us", "us"},
	{"core.remap_ms", "ms"},
	{"core.step1_ms", "ms"},
	{"core.rotate_ms", "ms"},
	{"core.step2_ms", "ms"},
	{"core.timing_ms", "ms"},
	{"core.lp_solves", "count"},
	{"core.simplex_iters", "count"},
	{"core.st_probes", "count"},
	{"core.outer_iters", "count"},
	{"core.probe_timeouts", "count"},
	{"core.improved_frac", "ratio"},
	{"core.retry_frac", "ratio"},
	{"lp.setup_ms", "ms"},
	{"lp.pricing_ms", "ms"},
	{"lp.ftran_ms", "ms"},
	{"lp.ratio_ms", "ms"},
	{"lp.update_ms", "ms"},
	{"lp.refresh_ms", "ms"},
	{"lp.iters_per_solve", "count"},
	{"lp.degenerate_frac", "ratio"},
	{"lp.max_m", "count"},
	{"lp.binv_mb", "MB"},
	{"lp.phase_coverage", "ratio"},
	{"serve.submit_rtt_us", "us"},
	{"serve.result_rtt_us", "us"},
	{"serve.cold_ms_p50", "ms"},
	{"serve.cold_ms_p90", "ms"},
	{"serve.delta_ms_p50", "ms"},
	{"serve.delta_ms_p90", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.hit_ms_p90", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.solve_ms_p50", "ms"},
	{"serve.busy_frac", "ratio"},
	{"serve.poll_lag_ms", "ms"},
	{"serve.gen_lag_ms_p99", "ms"},
	{"serve.backlog_growth", "jobs"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.semantic_hit_frac", "ratio"},
	{"serve.delta_seeded_frac", "ratio"},
	{"serve.delta_simplex_iters", "count"},
	{"telemetry.record_us", "us"},
	{"telemetry.bytes_per_job", "B"},
	{"calib.burst_ms", "ms"},
	{"calib.rtt_us", "us"},
	{"trace_overhead_frac", "ratio"},
}

// solverOp is one solver operation's effort: a table flow (both arms
// and any retry) or one cold or delta job of the service.
type solverOp struct {
	remapMs  float64
	stats    core.Stats
	improved int // arms that improved the floorplan
	arms     int
	retried  bool
	kernel   *flight.Kernel // nil when the kernel profiler was off
}

// solverLayers computes the core.* and lp.* metrics: per-operation
// means of the Stats phases and counters, the share of arms that
// improved and of operations that needed a retry, and the LP kernel
// profile aggregated over every operation.
func solverLayers(ops []solverOp) map[string]float64 {
	out := map[string]float64{}
	if len(ops) == 0 {
		return out
	}
	var (
		phaseNs                     = map[string]int64{}
		solves, iters, degenerate   int64
		maxM, improved, arms, retry int
		step2                       time.Duration
	)
	for _, op := range ops {
		st := op.stats
		out["core.remap_ms"] += op.remapMs
		out["core.step1_ms"] += ms(st.Step1Time)
		out["core.rotate_ms"] += ms(st.RotateTime)
		out["core.step2_ms"] += ms(st.Step2Time)
		out["core.timing_ms"] += ms(st.TimingTime)
		out["core.lp_solves"] += float64(st.LPSolves)
		out["core.simplex_iters"] += float64(st.SimplexIters)
		out["core.st_probes"] += float64(st.STProbes)
		out["core.outer_iters"] += float64(st.OuterIterations)
		out["core.probe_timeouts"] += float64(st.ProbeTimeouts)
		improved += op.improved
		arms += op.arms
		if op.retried {
			retry++
		}
		step2 += st.Step2Time
		if k := op.kernel; k != nil {
			for name, ph := range k.Phases {
				phaseNs[name] += ph.Nanos
			}
			solves, iters, degenerate = solves+k.Solves, iters+k.Iters, degenerate+k.Degenerate
			maxM = max(maxM, k.MaxM)
		}
	}
	n := float64(len(ops))
	for name := range out {
		out[name] /= n
	}
	out["core.improved_frac"] = ratio(float64(improved), float64(arms))
	out["core.retry_frac"] = float64(retry) / n
	var total int64
	for _, name := range flight.PhaseOrder {
		out["lp."+name+"_ms"] = float64(phaseNs[name]) / 1e6 / n
		total += phaseNs[name]
	}
	out["lp.iters_per_solve"] = ratio(float64(iters), float64(solves))
	out["lp.degenerate_frac"] = ratio(float64(degenerate), float64(iters))
	out["lp.max_m"] = float64(maxM)
	// The dense basis inverse is m x m float64s.
	out["lp.binv_mb"] = 8 * float64(maxM) * float64(maxM) / (1 << 20)
	out["lp.phase_coverage"] = ratio(float64(total), float64(step2))
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayTarget is one design of the workload and a floorplan the
// program returned for it.
type replayTarget struct {
	inst *instance
	m    arch.Mapping
}

// replayLayers times each cheap layer on its own, on the workload's own
// designs and answers: synthesis and placement of the design, the
// canonical hash and the JSON decode of its document, STA and path
// enumeration, the MTTF evaluation, and the thermal solve of the
// answer's power map. It reports each layer's median call.
func replayLayers(targets []replayTarget) (map[string]float64, error) {
	reps := 3
	if len(targets) > 0 && 24/len(targets) > reps {
		reps = 24 / len(targets)
	}
	model, tcfg := nbti.DefaultModel(), thermal.DefaultConfig()
	samples := map[string][]float64{}
	timeIt := func(name string, perMs bool, f func() error) error {
		t := time.Now()
		err := f()
		d := time.Since(t)
		if perMs {
			samples[name] = append(samples[name], ms(d))
		} else {
			samples[name] = append(samples[name], us(d))
		}
		return err
	}
	for rep := 0; rep < reps; rep++ {
		for _, t := range targets {
			in, d, m := t.inst, t.inst.d, t.m
			raw, err := json.Marshal(in.doc)
			if err != nil {
				return nil, err
			}
			var syn *arch.Design
			steps := []struct {
				name  string
				perMs bool
				f     func() error
			}{
				{"bench.synthesize_us", false, func() (err error) { syn, err = bench.Synthesize(in.spec); return err }},
				{"place.place_ms", true, func() error { _, err := place.Place(syn, place.DefaultConfig()); return err }},
				{"canon.canonicalize_us", false, func() error { _, err := canon.Canonicalize(in.doc); return err }},
				{"arch.decode_us", false, func() error {
					var doc arch.Document
					if err := json.Unmarshal(raw, &doc); err != nil {
						return err
					}
					_, _, err := arch.FromDocument(&doc)
					return err
				}},
				{"timing.analyze_us", false, func() error { timing.Analyze(d, m); return nil }},
			}
			for _, s := range steps {
				if err := timeIt(s.name, s.perMs, s.f); err != nil {
					return nil, fmt.Errorf("%s on %s: %w", s.name, in.name, err)
				}
			}
			res := timing.Analyze(d, m)
			_ = timeIt("timing.paths_us", false, func() error {
				timing.EnumeratePaths(d, m, res, timing.DefaultEnumerateOptions())
				return nil
			})
			if err := timeIt("core.evaluate_us", false, func() error {
				_, err := core.Evaluate(d, m, model, tcfg)
				return err
			}); err != nil {
				return nil, err
			}
			power := thermal.PowerFromStress(arch.ComputeStress(d, m), d.NumContexts, tcfg)
			if err := timeIt("thermal.solve_us", false, func() error {
				_, err := thermal.Solve(power, tcfg)
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	out := map[string]float64{}
	for name, v := range samples {
		out[name] = median(v)
	}
	return out, nil
}
