package core

import (
	"context"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/flight"
	"agingfp/internal/lp"
	"agingfp/internal/obs"
)

// Prometheus families the fold writes from each lp.Solution: refused
// warm starts labeled {reason=dim_mismatch|stale_basis|singular},
// degenerate pivots, primal refreshes / refactorizations, and profiled
// wall-clock per simplex phase labeled {phase=pricing|...}.
const (
	WarmRejectsMetric      = "agingfp_lp_warmstart_rejects_total"
	DegeneratePivotsMetric = "agingfp_lp_degenerate_pivots_total"
	RefactorizationsMetric = "agingfp_lp_refactorizations_total"
	PhaseSecondsMetric     = "agingfp_lp_phase_seconds_total"
)

// probePriorValidated marks the probe event of a prior floorplan that
// passed validation without a MILP probe: not an outer iteration.
const probePriorValidated = "prior_validated"

// fold is the one write path for a run's solver work. Each decision of
// Algorithm 1 reaches it in one call — a flight.Event, an LP solve, or a
// phase change — and the fold alone derives every view from it: the
// run's Stats counters, the metrics registry, the progress cell, the
// flight journal and the lp.warm_start trace event. Spans stay at their
// call sites.
//
// The sinks are resolved once per job; RemapBoth's arms and a Rotate
// run's Freeze fallback share them through folds made by run. Progress
// counters are incremented inside the reporter's read-modify-write, so
// they are cumulative for the job. All sinks are nil-safe; with none
// attached a decision allocates nothing.
type fold struct {
	st      *Stats
	tr      *obs.Tracer
	reg     *obs.Registry
	rep     *obs.Reporter
	rec     *flight.Recorder
	traceID string
	// profile/profileRate arm the LP kernel profiler on every solve when
	// the recorder asked for it (flight.Recorder.EnableKernel).
	profile     bool
	profileRate int
	// probeStart times the current Step-2.3 probe (agingfp_probe_seconds).
	probeStart time.Time
}

// newFold resolves the job's sinks: Options.Trace and Options.Flight
// when set, otherwise the context's tracer and recorder, plus the
// context's progress reporter and trace ID. The result has no Stats;
// derive one per run with run.
func newFold(ctx context.Context, opts Options) *fold {
	f := &fold{tr: opts.Trace, rec: opts.Flight, rep: obs.ReporterFrom(ctx), traceID: obs.TraceIDFrom(ctx)}
	if f.tr == nil {
		f.tr = obs.TracerFrom(ctx)
	}
	if f.rec == nil {
		f.rec = flight.FromContext(ctx)
	}
	f.reg = f.tr.Registry()
	f.profileRate, f.profile = f.rec.KernelProfiling()
	return f
}

// run returns a fold over the same sinks that counts into st.
func (f *fold) run(st *Stats) *fold {
	r := *f
	r.st = st
	return &r
}

// span opens a run's top-level span: under parent when it is live,
// otherwise as a trace root.
func (f *fold) span(parent obs.Span, name string, attrs ...obs.Attr) obs.Span {
	if parent.Active() {
		return parent.Child(name, attrs...)
	}
	return f.tr.Start(name, attrs...)
}

// phase publishes a flow-stage change ("step1", "rotate", "probe") and
// the stress target it works at. Entering "probe" starts the probe's
// wall-clock.
func (f *fold) phase(name string, st float64) {
	if name == "probe" {
		f.probeStart = time.Now()
	}
	f.rep.Update(func(p *obs.Progress) { p.Phase, p.STTarget = name, st })
}

// batch publishes which context batch (0-based bi of n) is being solved.
func (f *fold) batch(bi, n int) {
	f.rep.Update(func(p *obs.Progress) { p.Batch, p.Batches = bi+1, n })
}

// event folds one journaled decision. A Step-1 probe counts toward
// STProbes; a Step-2.3 probe is one outer iteration (the fold stamps its
// 1-based Round), and a timeout by status; a batch event blaming a
// constraint family is also an infeasibility attribution.
func (f *fold) event(e flight.Event) {
	switch {
	case e.Kind == flight.KindStep1Probe:
		f.st.STProbes++
		f.reg.Counter("agingfp_st_probes_total").Inc()
		f.rep.Update(func(p *obs.Progress) { p.STProbes++ })
	case e.Kind == flight.KindProbe && e.Status != probePriorValidated:
		f.st.OuterIterations++
		e.Round = f.st.OuterIterations
		if e.Status == "timeout" {
			f.st.ProbeTimeouts++
		}
		f.reg.Counter("agingfp_outer_iterations_total").Inc()
		f.reg.Histogram("agingfp_probe_seconds").Observe(time.Since(f.probeStart))
		f.rep.Update(func(p *obs.Progress) { p.RelaxRounds++ })
	}
	f.rec.Record(e)
	if e.Kind == flight.KindBatch && e.Cause != "" {
		f.rec.NoteInfeasible(e.Cause)
	}
}

// backjump counts one retracted pin of the rounding dive.
func (f *fold) backjump() {
	f.reg.Counter("agingfp_dive_backjumps_total").Inc()
}

// solve runs one LP of the flow, warm-started from warm when non-nil and
// profiled when the recorder armed it, and folds the solve into every
// view. Canceled or failed solves return their error and count nowhere.
func (f *fold) solve(ctx context.Context, p *lp.Problem, warm *lp.Basis) (*lp.Solution, error) {
	sol, err := lp.Solve(ctx, p, lp.Options{WarmStart: warm, Profile: f.profile, ProfileRate: f.profileRate})
	if err != nil {
		return nil, err
	}
	f.lp(sol, warm != nil)
	return sol, nil
}

// lp folds one LP solve; offered reports whether a warm-start basis was
// passed to the solver.
func (f *fold) lp(sol *lp.Solution, offered bool) {
	f.st.LPSolves++
	f.st.SimplexIters += sol.Iters
	f.reg.Counter("agingfp_lp_solves_total").Inc()
	f.reg.Counter("agingfp_simplex_iters_total").Add(int64(sol.Iters))
	switch {
	case offered && sol.Warm:
		f.st.WarmStarts++
		f.reg.Counter("agingfp_warm_starts_total").Inc()
		f.tr.Event("lp.warm_start", obs.Bool("hit", true), obs.Int("iters", sol.Iters))
		f.rec.NoteWarm(true, "")
	case offered:
		f.st.WarmStartRejects++
		if f.reg != nil {
			f.reg.Counter(obs.Labeled(WarmRejectsMetric, "reason", sol.WarmReject)).Inc()
		}
		f.tr.Event("lp.warm_start", obs.Bool("hit", false), obs.String("reason", sol.WarmReject))
		f.rec.NoteWarm(false, sol.WarmReject)
	}
	if sol.Degenerate > 0 {
		f.reg.Counter(DegeneratePivotsMetric).Add(int64(sol.Degenerate))
	}
	if sol.Refreshes > 0 {
		f.reg.Counter(RefactorizationsMetric).Add(int64(sol.Refreshes))
	}
	f.rec.NoteLP(sol.Iters, sol.Degenerate, sol.Refreshes)
	if p := sol.Profile; p != nil {
		f.rec.NoteKernel(p.Kernel())
		for name, ph := range p.Phases {
			f.reg.Gauge(obs.Labeled(PhaseSecondsMetric, "phase", name)).Add(float64(ph.Nanos) / 1e9)
		}
	}
	iters := int64(sol.Iters)
	f.rep.Update(func(p *obs.Progress) {
		p.LPSolves++
		p.SimplexIters += iters
	})
}

// stress journals the final floorplan's per-PE stress sm and the share
// the frozen critical ops contribute (what re-mapping could not move).
func (f *fold) stress(d *arch.Design, sm arch.StressMap, frozenPos map[int]arch.Coord) {
	if f.rec == nil {
		return
	}
	fab := d.Fabric
	total, frozen := make([][]float64, fab.H), make([][]float64, fab.H)
	for y := range total {
		total[y] = append([]float64(nil), sm[y]...)
		frozen[y] = make([]float64, fab.W)
	}
	for op, pe := range frozenPos {
		frozen[pe.Y][pe.X] += d.StressRate(op)
	}
	f.rec.SetStress(&flight.StressAttribution{W: fab.W, H: fab.H, Total: total, Frozen: frozen})
}

// end records the run's own phase wall-clock: cumulative gauges and one
// histogram observation per phase, plus the run's elapsed time.
func (f *fold) end() {
	if f.reg == nil {
		return
	}
	st := f.st
	for _, ph := range [...]struct {
		name string
		d    time.Duration
	}{{"step1", st.Step1Time}, {"rotate", st.RotateTime}, {"step2", st.Step2Time}, {"timing", st.TimingTime}} {
		f.reg.Gauge(`agingfp_phase_seconds{phase="` + ph.name + `"}`).Add(ph.d.Seconds())
		f.reg.Histogram(`agingfp_phase_duration_seconds{phase="` + ph.name + `"}`).Observe(ph.d)
	}
	f.reg.Histogram("agingfp_remap_seconds").Observe(st.Elapsed)
}
