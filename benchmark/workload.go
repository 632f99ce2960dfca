package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/flight"
	"agingfp/internal/serve"
)

// setupReps is how many times a run performs its set-up; setup_s is
// the median, and the last set-up is the one measured against.
const setupReps = 15

// outcome is what one run reports.
type outcome struct {
	attempted, failed int
	bad               []string
	metrics           map[string]float64
	lines             []string
	tr                *tracer
}

func (o *outcome) merge(m map[string]float64) {
	for k, v := range m {
		o.metrics[k] = v
	}
}

// count adds finished requests to the run's attempted and failed counts.
func (o *outcome) count(reqs []*request) {
	failed, bad := failures(reqs)
	o.attempted += len(reqs)
	o.failed += failed
	o.bad = append(o.bad, bad...)
}

// timedSetups runs set-up setupReps times, with a calibration sample
// before each, and returns the median scaled duration in seconds. undo,
// when non-nil, releases the previous set-up before the next one
// starts, outside the timed interval.
func timedSetups(clock *speedClock, setup func() error, undo func()) (float64, error) {
	var start, end []time.Time
	for i := 0; i < setupReps; i++ {
		if i > 0 && undo != nil {
			undo()
		}
		clock.sample()
		start = append(start, time.Now())
		if err := setup(); err != nil {
			return 0, err
		}
		end = append(end, time.Now())
	}
	clock.sample()
	d := make([]float64, setupReps)
	for i := range d {
		d[i] = end[i].Sub(start[i]).Seconds() * clock.scale(computeKernel, start[i], end[i])
	}
	return median(d), nil
}

// calibLayers reports how fast the machine ran the calibration kernels
// over the run.
func calibLayers(clock *speedClock) map[string]float64 {
	return map[string]float64{
		"calib.burst_ms": clock.medianMs(computeKernel),
		"calib.rtt_us":   1e3 * clock.medianMs(roundTripKernel),
	}
}

// speedLine reports how fast the machine ran the calibration kernels.
func speedLine(workload string, clock *speedClock) string {
	return fmt.Sprintf("%s calibration samples=%d compute median=%.4fms nominal=%.4fms round trip median=%.4fms nominal=%.4fms",
		workload, len(clock.samples), clock.medianMs(computeKernel), calNominalMs[computeKernel],
		clock.medianMs(roundTripKernel), calNominalMs[roundTripKernel])
}

// runTable runs table1-small or table1-large. The untraced passes give
// the end-to-end metrics; a traced run repeats them with spans and the
// kernel profiler on, then probes the service with the same designs and
// replays the cheap layers, for the per-layer metrics.
func runTable(ctx context.Context, workload string, seed int64, seconds float64, trace bool, work string) (*outcome, error) {
	clock := newSpeedClock()
	defer clock.close()
	var insts []*instance
	setup, err := timedSetups(clock, func() (err error) {
		if insts, err = setupTable(tableSpecs[workload], seed); err != nil {
			return err
		}
		return warmUp(ctx)
	}, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	names := insts // every instance an op may refer to, drift watch included
	note := func(ops []tableOp) {
		for _, op := range ops {
			out.attempted++
			if len(op.bad) > 0 {
				out.failed++
				for _, b := range op.bad {
					out.bad = append(out.bad, names[op.inst].name+": "+b)
				}
			}
		}
	}
	ops, passes, err := runTablePasses(ctx, insts, seconds, nil, false, clock)
	if err != nil {
		return nil, err
	}
	note(ops)
	e2e := tableEndToEnd(ops, len(insts))
	out.lines = append(out.lines, fmt.Sprintf("%s passes=%d ops=%d", workload, passes, len(ops)))
	out.lines = append(out.lines, tableDiag(workload, ops, insts)...)
	if !trace {
		out.merge(e2e)
		out.metrics["setup_s"] = setup
		out.lines = append(out.lines, countRepeats(ops, insts)...)
		out.lines = append(out.lines, speedLine(workload, clock))
		return out, nil
	}

	out.tr = newTracer()
	tops, _, err := runTablePasses(ctx, insts, seconds, out.tr, true, clock)
	if err != nil {
		return nil, err
	}
	note(tops)
	out.merge(solverLayers(tableSolverOps(tops)))
	out.metrics["trace_overhead_frac"] = tableEndToEnd(tops, len(insts))["solve_ms_geomean"]/e2e["solve_ms_geomean"] - 1
	out.merge(calibLayers(clock))
	out.lines = append(out.lines, speedLine(workload, clock))

	watch, err := setupTable(driftWatch[workload], seed)
	if err != nil {
		return nil, err
	}
	names = append(append([]*instance(nil), insts...), watch...)
	var wops []tableOp
	for rep := 0; rep < driftRepeats; rep++ {
		for j, in := range watch {
			op, err := runTableOp(ctx, in, nil, false)
			if err != nil {
				return nil, err
			}
			op.inst = len(insts) + j
			wops = append(wops, op)
		}
	}
	note(wops)
	out.lines = append(out.lines, countRepeats(append(append(ops, tops...), wops...), names)...)

	svc, err := startService(work, true)
	if err != nil {
		return nil, err
	}
	var probed []*instance
	for _, in := range insts {
		if slices.Contains(probeSpecs[workload], in.name) {
			probed = append(probed, in)
		}
	}
	plan, err := probePlan(seed, probed)
	if err != nil {
		svc.stop()
		svc.remove()
		return nil, err
	}
	if err := measureService(ctx, svc, plan, out, false, func() *engine { return runPlan(ctx, svc, out.tr, plan) }); err != nil {
		return nil, err
	}
	out.lines = append(out.lines, serveDiag(workload+" probe", plan, wallMs)...)
	out.lines = append(out.lines, deferredLine(workload+" probe", plan))
	final := make([]arch.Mapping, len(insts))
	for _, op := range tops {
		final[op.inst] = op.final
	}
	var targets []replayTarget
	for i, in := range insts {
		targets = append(targets, replayTarget{in, final[i]})
	}
	layers, err := replayLayers(targets)
	if err != nil {
		return nil, err
	}
	out.merge(layers)
	return out, nil
}

// warmUp runs warmupSpec through the flow once and checks the answer.
func warmUp(ctx context.Context) error {
	spec, _ := bench.SpecByName(warmupSpec)
	in, err := makeInstance(spec)
	if err != nil {
		return err
	}
	op, err := runTableOp(ctx, in, nil, false)
	if err != nil {
		return err
	}
	if len(op.bad) > 0 {
		return fmt.Errorf("warm-up answer rejected: %v", op.bad)
	}
	return nil
}

// makeInstances synthesizes and places every spec.
func makeInstances(specs []bench.Spec) ([]*instance, error) {
	out := make([]*instance, len(specs))
	for i, s := range specs {
		in, err := makeInstance(s)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// serveSetup is one prepared serve-mix run: a started, warmed-up
// service, the seeded pass plan, and the warm-up design every fresh
// service solves first.
type serveSetup struct {
	svc  *service
	plan []*request
	warm *instance
}

// setupServe builds the pass's cold corpus and the warm-up design,
// starts a warmed-up service, and draws the pass plan.
func setupServe(ctx context.Context, seed int64, work string) (*serveSetup, error) {
	specs, err := corpusSpecs(servePassColds)
	if err != nil {
		return nil, err
	}
	corpus, err := makeInstances(specs)
	if err != nil {
		return nil, err
	}
	ws, err := variantSpec("B1", warmupVariants[0])
	if err != nil {
		return nil, err
	}
	warm, err := makeInstance(ws)
	if err != nil {
		return nil, err
	}
	svc, err := startWarmService(ctx, work, warm, false)
	if err != nil {
		return nil, err
	}
	plan, err := passPlan(seed, corpus)
	if err != nil {
		svc.stop()
		svc.remove()
		return nil, err
	}
	return &serveSetup{svc: svc, plan: plan, warm: warm}, nil
}

// startWarmService starts a service and solves warm cold on it, so the
// first measured request does not pay for the server's and the
// connection's first use.
func startWarmService(ctx context.Context, work string, warm *instance, kernel bool) (*service, error) {
	svc, err := startService(work, kernel)
	if err != nil {
		return nil, err
	}
	w := []*request{{kind: kindCold, inst: warm}}
	runClosed(ctx, svc, nil, nil, w)
	if failed, bad := failures(w); failed > 0 {
		svc.stop()
		svc.remove()
		return nil, fmt.Errorf("warm-up job failed: %v", bad)
	}
	return svc, nil
}

// runServePasses runs closed-loop passes of the plan, each against a
// fresh service (the set-up's for the first), until the next pass would
// end after seconds (at least one pass). A fresh service per pass makes
// every pass's cold submits cold and every pass the same work.
func runServePasses(ctx context.Context, st *serveSetup, seconds float64, work string, clock *speedClock) ([][]*request, error) {
	var passes [][]*request
	svc := st.svc
	start := time.Now()
	for {
		if svc == nil {
			var err error
			if svc, err = startWarmService(ctx, work, st.warm, false); err != nil {
				return nil, err
			}
		}
		reqs := clonePlan(st.plan)
		runClosed(ctx, svc, nil, clock, reqs)
		err := svc.stop()
		svc.remove()
		svc = nil
		if err != nil {
			return nil, fmt.Errorf("stop service: %w", err)
		}
		// The answers are checked; drop the documents, so the live heap
		// holds the service rather than the records of earlier passes.
		for _, r := range reqs {
			r.raw, r.snap = nil, serve.Snapshot{}
			if r.res != nil {
				r.res.Mapping = nil
			}
		}
		passes = append(passes, reqs)
		el := time.Since(start).Seconds()
		if el+el/float64(len(passes)) > seconds {
			return passes, nil
		}
	}
}

// runServeMix runs serve-mix: closed-loop passes for the end-to-end
// metrics. A traced run then sends one more pass to a fresh service
// with the kernel profiler on, reading the solver's per-layer metrics
// from the server's records, and runs the open-loop probe for the
// service's queueing metrics.
func runServeMix(ctx context.Context, seed int64, seconds float64, trace bool, work string) (*outcome, error) {
	clock := newSpeedClock()
	defer clock.close()
	var st *serveSetup
	setup, err := timedSetups(clock, func() (err error) {
		st, err = setupServe(ctx, seed, work)
		return err
	}, func() {
		st.svc.stop()
		st.svc.remove()
	})
	if err != nil {
		return nil, err
	}
	passes, err := runServePasses(ctx, st, seconds, work, clock)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	var all []*request
	for _, p := range passes {
		out.count(p)
		all = append(all, p...)
	}
	e2e := serveEndToEnd(passes)
	out.lines = append(out.lines, fmt.Sprintf("serve-mix passes=%d requests=%d", len(passes), len(all)))
	out.lines = append(out.lines, serveDiag("serve-mix scaled", all, scaledMs)...)
	out.lines = append(out.lines, serveDiag("serve-mix wall", all, wallMs)...)
	if !trace {
		out.merge(e2e)
		out.metrics["setup_s"] = setup
		out.lines = append(out.lines, speedLine("serve-mix", clock))
		return out, nil
	}

	out.tr = newTracer()
	svc, err := startWarmService(ctx, work, st.warm, true)
	if err != nil {
		return nil, err
	}
	reqs := clonePlan(st.plan)
	if err := measureService(ctx, svc, reqs, out, true, func() *engine { return runClosed(ctx, svc, out.tr, clock, reqs) }); err != nil {
		return nil, err
	}
	out.metrics["trace_overhead_frac"] = serveEndToEnd([][]*request{reqs})["solve_ms_geomean"]/e2e["solve_ms_geomean"] - 1
	out.merge(calibLayers(clock))
	out.lines = append(out.lines, speedLine("serve-mix", clock))
	var targets []replayTarget
	for _, r := range reqs {
		if r.kind == kindCold && ok(r) {
			targets = append(targets, replayTarget{r.inst, mappingFromCells(r.res.Mapping)})
		}
	}
	if err := openLoopProbe(ctx, seed, math.Min(seconds, probeSeconds), work, out); err != nil {
		return nil, err
	}
	layers, err := replayLayers(targets)
	if err != nil {
		return nil, err
	}
	out.merge(layers)
	return out, nil
}

// openLoopProbe runs the open-loop schedule (mixRate requests per second
// for seconds) against a fresh service whose four warm-up jobs give the
// first dependents their bases, and merges the serve.* and telemetry.*
// metrics it measures into out: queue waits, worker utilization,
// backlog growth and generator lateness exist only under arrivals that
// do not wait for answers.
func openLoopProbe(ctx context.Context, seed int64, seconds float64, work string, out *outcome) error {
	nCold, _, _, _ := mixCounts(int(math.Round(mixRate * seconds)))
	specs, err := corpusSpecs(nCold)
	if err != nil {
		return err
	}
	corpus, err := makeInstances(specs)
	if err != nil {
		return err
	}
	var warm []*request
	for _, v := range warmupVariants {
		s, err := variantSpec("B1", v)
		if err != nil {
			return err
		}
		in, err := makeInstance(s)
		if err != nil {
			return err
		}
		warm = append(warm, &request{kind: kindCold, inst: in})
	}
	svc, err := startService(work, false)
	if err != nil {
		return err
	}
	runPlan(ctx, svc, nil, warm)
	if failed, bad := failures(warm); failed > 0 {
		svc.stop()
		svc.remove()
		return fmt.Errorf("warm-up jobs failed: %v", bad)
	}
	plan, err := serveMixPlan(seed, seconds, corpus, warm)
	if err != nil {
		svc.stop()
		svc.remove()
		return err
	}
	if err := measureService(ctx, svc, plan, out, false, func() *engine { return runPlan(ctx, svc, nil, plan) }); err != nil {
		return err
	}
	out.lines = append(out.lines, serveDiag("serve-mix open-loop probe", plan, wallMs)...)
	out.lines = append(out.lines, deferredLine("serve-mix open-loop probe", plan))
	return nil
}

// measureService runs a plan against svc through run, then stops and
// removes the service. It adds the plan's requests to out's counts and
// the serve.* and telemetry.* metrics to out. With withSolver set it
// also derives the core.* and lp.* metrics from the server's records.
func measureService(ctx context.Context, svc *service, plan []*request, out *outcome, withSolver bool, run func() *engine) error {
	defer svc.remove()
	eng := run()
	out.count(plan)
	out.merge(serveLayers(eng, plan))
	var js map[*request]*flight.Journal
	if withSolver {
		var err error
		if js, err = journals(ctx, svc, plan); err != nil {
			svc.stop()
			return err
		}
	}
	if err := svc.stop(); err != nil {
		return err
	}
	events, err := storedEvents(svc.dir)
	if err != nil {
		return err
	}
	if withSolver {
		out.merge(solverLayers(serveSolverOps(events, js)))
	}
	tl, err := telemetryLayers(svc.dir, events)
	if err != nil {
		return err
	}
	out.merge(tl)
	return nil
}
