package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/canon"
	"agingfp/internal/core"
	"agingfp/internal/flight"
	"agingfp/internal/nbti"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// tableSpecs are the Table-I benchmarks each table workload runs, in
// pass order. B7, B22 and B16 are left out: an arm of theirs does not
// repeat its own work from run to run on one input (B22's Freeze arm
// takes 0.2 s or 4 s, B16's flow 4.9 s to 9.5 s), which would make the
// workload's timings measure that drift instead of the code. The traced
// run watches them instead (driftWatch).
var tableSpecs = map[string][]string{
	// Many small LPs: per-solve set-up and the non-LP layers carry
	// their largest share here.
	"table1-small": {"B1", "B4", "B10", "B13", "B19"},
	// Few large LPs (4x4 with 16 contexts, and 8x8), where the dense
	// basis inverse dominates Step 2.
	"table1-large": {"B25", "B2", "B5"},
}

// driftWatch are instances a traced run repeats driftRepeats times only
// for the count-repeat report; they enter no metric.
var driftWatch = map[string][]string{"table1-small": {"B7", "B22"}, "table1-large": {"B16"}}

const driftRepeats = 2

// probeSpecs are the instances a table workload's traced run submits to
// the service probe. table1-large sends only B2: the service's cold
// solves of B25 and B5 took about 20 s each, B2's 3 s, and probing all
// three took 37 s of a 119 s traced run.
var probeSpecs = map[string][]string{
	"table1-small": tableSpecs["table1-small"],
	"table1-large": {"B2"},
}

// warmupSpec is run once through the flow during set-up, so the first
// timed operation does not pay for first use of the code and heap.
const warmupSpec = "B1"

// setupTable builds the workload's inputs: each Table-I instance
// synthesized and placed exactly as the experiments flow does, then, for
// a seed other than 0, submitted under a seeded renumbering of its ops.
func setupTable(names []string, seed int64) ([]*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*instance
	for _, name := range names {
		spec, ok := bench.SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown Table-I benchmark %q", name)
		}
		in, err := makeInstance(spec)
		if err != nil {
			return nil, err
		}
		if seed != 0 {
			if in, err = in.renumbered(notIdentityPerm(rng, in.d.NumOps())); err != nil {
				return nil, err
			}
		}
		out = append(out, in)
	}
	return out, nil
}

// tableOp is one instance through the full flow once.
type tableOp struct {
	inst       int
	start, end time.Time
	ms         float64 // the whole flow's wall-clock, checking excluded
	scaled     float64 // ms at the reference speed (calib.go)
	remapMs    float64 // the RemapBoth calls, retry included
	gain       float64 // delivered MTTF increase (better arm)
	retried    bool
	// Per arm (0 Freeze, 1 Rotate), retry folded in.
	stats    [2]core.Stats
	improved [2]bool
	hash     [2]uint64    // floorplan identity, for the count-repeat report
	final    arch.Mapping // the delivered floorplan, submitted numbering
	kernel   *flight.Kernel
	bad      []string
}

// runTableOp runs one instance through the experiments flow: the
// document canonicalized and decoded (as agingfloord does, so solver
// work does not depend on the submitted numbering), baseline STA and
// MTTF, RemapBoth with the experiments' reseeded retry when neither arm
// improved, MTTF of both arms, and the floorplans translated back to
// the submitted numbering. The independent checker runs afterwards,
// outside the timed interval.
func runTableOp(ctx context.Context, in *instance, tr *tracer, kernel bool) (tableOp, error) {
	var op tableOp
	model, tcfg := nbti.DefaultModel(), thermal.DefaultConfig()
	endOp, root := tr.start("op."+in.name, 0)
	t0 := time.Now()
	step := func(name string, f func() error) error {
		end, _ := tr.start(name, root)
		defer end()
		return f()
	}

	var (
		form   *canon.Form
		d      *arch.Design
		m0     arch.Mapping
		res0   *timing.Result
		before *core.MTTFReport
		fr, ro *core.Result
		rec    *flight.Recorder
	)
	err := step("canon.canonicalize", func() (err error) {
		form, err = canon.Canonicalize(in.doc)
		return err
	})
	if err == nil {
		err = step("arch.decode", func() error {
			dd, maps, err := arch.FromDocument(form.Doc)
			d, m0 = dd, maps[canon.BaselineMapping]
			return err
		})
	}
	if err == nil {
		err = step("timing.analyze", func() error { res0 = timing.Analyze(d, m0); return nil })
	}
	if err == nil {
		err = step("core.evaluate", func() (err error) { before, err = core.Evaluate(d, m0, model, tcfg); return err })
	}
	if err != nil {
		endOp()
		return op, fmt.Errorf("%s: %w", in.name, err)
	}
	opts := core.DefaultOptions()
	opts.Seed = in.spec.Seed
	if kernel {
		rec = flight.NewRecorder(1)
		rec.EnableKernel(0)
		opts.Flight = rec
	}
	remap := func(o core.Options) (f, r *core.Result, err error) {
		t := time.Now()
		err = step("core.remap_both", func() (err error) { f, r, err = core.RemapBoth(ctx, d, m0, o); return err })
		op.remapMs += float64(time.Since(t)) / 1e6
		return f, r, err
	}
	if fr, ro, err = remap(opts); err != nil {
		endOp()
		return op, fmt.Errorf("%s: %w", in.name, err)
	}
	op.stats = [2]core.Stats{fr.Stats, ro.Stats}
	if !fr.Improved && !ro.Improved {
		op.retried = true
		retry := opts
		retry.Seed = opts.Seed + 9173
		fr2, ro2, err := remap(retry)
		if err != nil {
			endOp()
			return op, fmt.Errorf("%s retry: %w", in.name, err)
		}
		op.stats[0], op.stats[1] = addStats(op.stats[0], fr2.Stats), addStats(op.stats[1], ro2.Stats)
		if fr2.Improved || ro2.Improved {
			fr, ro = fr2, ro2
		}
	}
	var afterF, afterR *core.MTTFReport
	err = step("core.evaluate", func() (err error) { afterF, err = core.Evaluate(d, fr.Mapping, model, tcfg); return err })
	if err == nil {
		err = step("core.evaluate", func() (err error) { afterR, err = core.Evaluate(d, ro.Mapping, model, tcfg); return err })
	}
	if err != nil {
		endOp()
		return op, fmt.Errorf("%s: %w", in.name, err)
	}
	var mf, mr arch.Mapping
	_ = step("canon.translate", func() error {
		mf = canon.TranslateMapping(fr.Mapping, form.OpPerm)
		mr = canon.TranslateMapping(ro.Mapping, form.OpPerm)
		return nil
	})
	op.start, op.end = t0, time.Now()
	op.ms = ms(op.end.Sub(t0))
	endOp()
	// The flow keeps whichever floorplan has the higher MTTF.
	op.gain, op.final = afterF.Hours/before.Hours, mf
	if afterR.Hours > afterF.Hours {
		op.gain, op.final = afterR.Hours/before.Hours, mr
	}

	op.improved = [2]bool{fr.Improved, ro.Improved}
	op.hash = [2]uint64{hashMapping(mf), hashMapping(mr)}
	op.kernel = rec.KernelSnapshot()
	for _, arm := range []struct {
		m arch.Mapping
		r *core.Result
	}{{mf, fr}, {mr, ro}} {
		op.bad = append(op.bad, checkFloorplan(in.d, in.m0, floorplanClaim{
			Mapping: arm.m, MaxStress: arm.r.NewMaxStress, STTarget: arm.r.STTarget,
			NewCPD: arm.r.NewCPD, OrigCPD: res0.CPD,
		})...)
	}
	op.bad = append(op.bad, checkRotateVsFreeze(in.d, mf, mr)...)
	return op, nil
}

// addStats sums two arms' effort the way core folds a fallback run in.
func addStats(a, b core.Stats) core.Stats {
	a.LPSolves += b.LPSolves
	a.ILPSolves += b.ILPSolves
	a.ILPNodes += b.ILPNodes
	a.STProbes += b.STProbes
	a.ProbeTimeouts += b.ProbeTimeouts
	a.OuterIterations += b.OuterIterations
	a.SimplexIters += b.SimplexIters
	a.WarmStarts += b.WarmStarts
	a.WarmStartRejects += b.WarmStartRejects
	a.Step1Time += b.Step1Time
	a.RotateTime += b.RotateTime
	a.Step2Time += b.Step2Time
	a.TimingTime += b.TimingTime
	return a
}

func hashMapping(m arch.Mapping) uint64 {
	h := fnv.New64a()
	for _, c := range m {
		fmt.Fprintf(h, "%d,%d;", c.X, c.Y)
	}
	return h.Sum64()
}

// runTablePasses runs passes over every instance until the next pass
// would end after seconds (at least one pass), so every instance has
// the same number of samples. clock is sampled between the flows and
// gives each its scaled time.
func runTablePasses(ctx context.Context, insts []*instance, seconds float64, tr *tracer, kernel bool, clock *speedClock) ([]tableOp, int, error) {
	var ops []tableOp
	start := time.Now()
	passes := 0
	for {
		for i, in := range insts {
			clock.tick()
			op, err := runTableOp(ctx, in, tr, kernel)
			if err != nil {
				return nil, passes, err
			}
			op.inst = i
			ops = append(ops, op)
		}
		passes++
		el := time.Since(start).Seconds()
		if el+el/float64(passes) > seconds {
			break
		}
	}
	clock.sample()
	for i := range ops {
		ops[i].scaled = ops[i].ms * clock.scale(computeKernel, ops[i].start, ops[i].end)
	}
	return ops, passes, nil
}

// perInstance groups the ops' flow times (scaled ms, or wall-clock ms
// when raw) and MTTF increases by instance.
func perInstance(ops []tableOp, n int, raw bool) (times, gains [][]float64) {
	times, gains = make([][]float64, n), make([][]float64, n)
	for _, op := range ops {
		t := op.scaled
		if raw {
			t = op.ms
		}
		times[op.inst] = append(times[op.inst], t)
		gains[op.inst] = append(gains[op.inst], op.gain)
	}
	return times, gains
}

// tableEndToEnd computes the user-facing metrics of a table run from
// the scaled flow times.
func tableEndToEnd(ops []tableOp, n int) map[string]float64 {
	times, gains := perInstance(ops, n, false)
	var all, instMs, instGain []float64
	for i := range times {
		all = append(all, times[i]...)
		instMs = append(instMs, median(times[i]))
		instGain = append(instGain, median(gains[i]))
	}
	return map[string]float64{
		"solve_ms_geomean":  geomean(instMs),
		"op_ms_geomean":     geomean(all),
		"op_ms_p90":         percentile(all, 90),
		"mttf_gain_geomean": geomean(instGain),
	}
}

// tableDiag prints each instance's median flow time, scaled and as
// wall-clock, and its MTTF increase: the samples solve_ms_geomean and
// mttf_gain_geomean summarize.
func tableDiag(workload string, ops []tableOp, insts []*instance) []string {
	times, gains := perInstance(ops, len(insts), false)
	wall, _ := perInstance(ops, len(insts), true)
	var lines []string
	for i, in := range insts {
		lines = append(lines, fmt.Sprintf("%s %s n=%d median=%.3fms min=%.3fms max=%.3fms wall_median=%.3fms mttf_gain=%.4f",
			workload, in.name, len(times[i]), median(times[i]), percentile(times[i], 0), percentile(times[i], 100),
			median(wall[i]), median(gains[i])))
	}
	return lines
}

// tableSolverOps turns traced table ops into solver samples: both arms
// and any retry summed per op.
func tableSolverOps(ops []tableOp) []solverOp {
	out := make([]solverOp, len(ops))
	for i, op := range ops {
		out[i] = solverOp{remapMs: op.remapMs, stats: addStats(op.stats[0], op.stats[1]),
			arms: 2, retried: op.retried, kernel: op.kernel}
		for _, imp := range op.improved {
			if imp {
				out[i].improved++
			}
		}
	}
	return out
}

// countRepeats reports, per instance and arm, which program counts
// repeated exactly across the instance's runs; later claims may rest
// only on counts marked exact. Instances run once cannot be judged.
func countRepeats(ops []tableOp, insts []*instance) []string {
	type key struct {
		inst, arm int
		count     string
	}
	counts := []string{"simplex_iters", "lp_solves", "st_probes", "floorplan"}
	seen := map[key]map[int64]bool{}
	runs := map[int]int{}
	var order []key
	for _, op := range ops {
		runs[op.inst]++
		for arm := 0; arm < 2; arm++ {
			st := op.stats[arm]
			for i, v := range []int64{int64(st.SimplexIters), int64(st.LPSolves), int64(st.STProbes), int64(op.hash[arm])} {
				k := key{op.inst, arm, counts[i]}
				if seen[k] == nil {
					seen[k] = map[int64]bool{}
					order = append(order, k)
				}
				seen[k][v] = true
			}
		}
	}
	judged := 0
	for _, n := range runs {
		if n > 1 {
			judged++
		}
	}
	if judged == 0 {
		return []string{"count repeat report needs two runs of an instance; this run made one of each"}
	}
	arms := [2]string{"freeze", "rotate"}
	exact := map[string]bool{}
	for _, c := range counts {
		exact[c] = true
	}
	var lines []string
	for _, k := range order {
		if n := len(seen[k]); n > 1 {
			exact[k.count] = false
			lines = append(lines, fmt.Sprintf("count %s %s.%s drifts: %d distinct values in %d runs",
				insts[k.inst].name, arms[k.arm], k.count, n, runs[k.inst]))
		}
	}
	for _, c := range counts {
		verdict := fmt.Sprintf("repeats exactly on all %d instances run more than once", judged)
		if !exact[c] {
			verdict = "drifts (see above)"
		}
		lines = append(lines, fmt.Sprintf("count %s %s", c, verdict))
	}
	return lines
}
