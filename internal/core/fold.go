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
// flight journal, and the run's spans.
//
// Spans follow the decisions. A phase, batch, relaxation or dive call
// opens one, and the event that concludes the decision ends it with
// that event's own status, so the span stream and the journal use one
// vocabulary. The flow inside a run is sequential, so one stack of open
// spans per run suffices; concluding a span also ends whatever is still
// open above it with status=error (an error return left it there).
//
// The sinks are resolved once per job; RemapBoth's arms and a Rotate
// run's Freeze fallback share them through folds made by run, each with
// its own span stack. Progress counters are incremented inside the
// reporter's read-modify-write, so they are cumulative for the job. All
// sinks are nil-safe; with none attached a decision allocates nothing.
type fold struct {
	st  *Stats
	tr  *obs.Tracer
	reg *obs.Registry
	rep *obs.Reporter
	rec *flight.Recorder
	// profile/profileRate arm the LP kernel profiler on every solve when
	// the recorder asked for it (flight.Recorder.EnableKernel).
	profile     bool
	profileRate int
	// probeStart times the current Step-2.3 probe (agingfp_probe_seconds).
	probeStart time.Time

	// root is the run's top-level span (see open); spans holds the spans
	// open under it, outermost first.
	root  obs.Span
	spans [4]openSpan
	depth int
}

// openSpan is one open span and the taxonomy name that identifies it.
type openSpan struct {
	name string
	sp   obs.Span
}

// newFold resolves the job's sinks: Options.Trace, Options.Flight and
// Options.Progress. The result has no Stats; derive one per run with
// run.
func newFold(opts Options) *fold {
	f := &fold{tr: opts.Trace, rec: opts.Flight, rep: opts.Progress}
	f.reg = f.tr.Registry()
	f.profileRate, f.profile = f.rec.KernelProfiling()
	return f
}

// run returns a fold over the same sinks that counts into st, with no
// spans open.
func (f *fold) run(st *Stats) *fold {
	r := *f
	r.st = st
	r.root, r.depth = obs.Span{}, 0
	return &r
}

// open starts the run's top-level span (core.remap, core.remap_both,
// core.solve_once): under parent when it is live, otherwise as a trace
// root.
func (f *fold) open(parent obs.Span, name string, attrs ...obs.Attr) {
	if parent.Active() {
		f.root = parent.Child(name, attrs...)
	} else {
		f.root = f.tr.Start(name, attrs...)
	}
}

// close ends the run's open spans with status=ok, or status=error after
// an error return, and the root with that status and attrs.
func (f *fold) close(err error, attrs ...obs.Attr) {
	status := obs.String("status", "ok")
	if err != nil {
		status = obs.String("status", "error")
	}
	f.unwind(0, status)
	var buf [8]obs.Attr
	f.root.End(append(append(buf[:0], status), attrs...)...)
	f.root = obs.Span{}
}

// top is the innermost open span.
func (f *fold) top() obs.Span {
	if f.depth > 0 {
		return f.spans[f.depth-1].sp
	}
	return f.root
}

// push opens a span under the innermost open one.
func (f *fold) push(name string, attrs ...obs.Attr) {
	f.spans[f.depth] = openSpan{name, f.top().Child(name, attrs...)}
	f.depth++
}

// unwind ends every open span above depth d, innermost first, with attrs.
func (f *fold) unwind(d int, attrs ...obs.Attr) {
	for f.depth > d {
		f.depth--
		f.spans[f.depth].sp.End(attrs...)
		f.spans[f.depth] = openSpan{}
	}
}

// conclude ends the innermost open span called name with attrs, after
// ending the spans above it with status=error. Nothing happens when no
// such span is open.
func (f *fold) conclude(name string, attrs ...obs.Attr) {
	for d := f.depth - 1; d >= 0; d-- {
		if f.spans[d].name == name {
			f.unwind(d+1, obs.String("status", "error"))
			f.unwind(d, attrs...)
			return
		}
	}
}

// note emits an instant event under the innermost open span.
func (f *fold) note(name string, attrs ...obs.Attr) {
	f.top().Event(name, attrs...)
}

// phase publishes a flow-stage change ("step1", "rotate", "probe") and
// the stress target it works at. It ends the previous stage's span and
// opens core.step1, core.rotate or core.probe under the root; "step1" at
// a nonzero target is instead one Step-1 budget probe, a
// core.step1.probe span inside core.step1. Entering "probe" starts the
// probe's wall-clock.
func (f *fold) phase(name string, st float64) {
	switch {
	case name == "step1" && st != 0:
		f.push("core.step1.probe", obs.Float("st_target", st))
	case name == "step1":
		f.unwind(0)
		f.push("core.step1")
	case name == "rotate":
		f.unwind(0)
		f.push("core.rotate")
	case name == "probe":
		f.probeStart = time.Now()
		f.unwind(0)
		f.push("core.probe", obs.Float("st", st))
	}
	f.rep.Update(func(p *obs.Progress) { p.Phase, p.STTarget = name, st })
}

// batch publishes which context batch (0-based bi of n) is being solved
// and opens its core.batch span.
func (f *fold) batch(bi, n int) {
	f.push("core.batch", obs.Int("batch", bi), obs.Int("batches", n))
	f.rep.Update(func(p *obs.Progress) { p.Batch, p.Batches = bi+1, n })
}

// dive opens the core.dive span of one rounding-dive restart over
// movable ops; its dive event ends it.
func (f *fold) dive(restart, movable int) {
	f.push("core.dive", obs.Int("restart", restart), obs.Int("movable", movable))
}

// event folds one journaled decision. A Step-1 probe counts toward
// STProbes; a Step-2.3 probe is one outer iteration (the fold stamps its
// 1-based Round), and a timeout by status; a batch event blaming a
// constraint family is also an infeasibility attribution. An event that
// concludes a decision ends that decision's span with its status.
func (f *fold) event(e flight.Event) {
	switch {
	case e.Kind == flight.KindStep1Probe:
		f.st.STProbes++
		f.reg.Counter("agingfp_st_probes_total").Inc()
		f.rep.Update(func(p *obs.Progress) { p.STProbes++ })
		f.conclude("core.step1.probe", obs.String("status", e.Status), obs.String("certificate", e.Cause))
	case e.Kind == flight.KindProbe && e.Status != probePriorValidated:
		f.st.OuterIterations++
		e.Round = f.st.OuterIterations
		if e.Status == "timeout" {
			f.st.ProbeTimeouts++
		}
		f.reg.Counter("agingfp_outer_iterations_total").Inc()
		f.reg.Histogram("agingfp_probe_seconds").Observe(time.Since(f.probeStart))
		f.rep.Update(func(p *obs.Progress) { p.RelaxRounds++ })
		f.conclude("core.probe", obs.String("status", e.Status), obs.Int("round", e.Round))
	case e.Kind == flight.KindBatch:
		f.conclude("core.batch", obs.String("status", e.Status), obs.Int("movable", e.N),
			obs.Int("rows", e.M), obs.String("cause", e.Cause))
	case e.Kind == flight.KindDive:
		f.conclude("core.dive", obs.String("status", e.Status), obs.Int("pins", e.N))
	case e.Kind == flight.KindRotate:
		f.note("core.rotate.select", obs.Int("winner", e.Round), obs.Float("score", e.Obj), obs.Int("cross_arcs", e.N))
		f.conclude("core.rotate")
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

// relax solves a batch's LP relaxation like solve, inside a core.relax
// span that ends with the solution's status.
func (f *fold) relax(ctx context.Context, p *lp.Problem, warm *lp.Basis) (*lp.Solution, error) {
	f.push("core.relax", obs.Int("vars", p.NumVars()), obs.Int("rows", p.NumRows()))
	sol, err := f.solve(ctx, p, warm)
	if err != nil {
		f.conclude("core.relax", obs.String("status", "error"))
		return nil, err
	}
	f.conclude("core.relax", obs.String("status", sol.Status.String()), obs.Int("iters", sol.Iters), obs.Bool("warm", sol.Warm))
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
		f.rec.NoteKernel(p)
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
