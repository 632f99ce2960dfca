package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/flight"
	"agingfp/internal/milp"
	"agingfp/internal/obs"
	"agingfp/internal/timing"
)

// Remap runs the full aging-aware re-mapping flow (Algorithm 1) on design
// d starting from the aging-unaware floorplan m0, and returns the new
// floorplan together with the achieved stress target and CPD bookkeeping.
//
// The returned mapping's critical path delay never exceeds the delay
// budget — the original floorplan's CPD by default (Options.CPDBudgetNs
// can relax it toward the clock period). If no strictly better stress
// level can be reached under that guarantee, the original mapping is
// returned with Improved == false.
//
// Cancellation is cooperative: ctx is polled at every ST_target probe,
// every context batch and (via the LP layer) inside the simplex loops, so a canceled or expired context
// makes Remap return promptly. A canceled run returns a partial Result
// (Status milp.Canceled, the baseline mapping, statistics so far)
// alongside ctx.Err(); existing synchronous callers pass
// context.Background().
func Remap(ctx context.Context, d *arch.Design, m0 arch.Mapping, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return remap(ctx, d, m0, opts, newFold(ctx, opts), true)
}

// remap is one Remap run writing its work through the job's shared
// sinks (see fold). freezeFallback lets a Rotate run that did not
// improve run Freeze and keep the better floorplan; RemapBoth, whose
// own Freeze arm is that run, turns it off.
func remap(ctx context.Context, d *arch.Design, m0 arch.Mapping, opts Options, sinks *fold, freezeFallback bool) (_ *Result, err error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := arch.ValidateMapping(d, m0); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	staT := time.Now()
	res0 := timing.Analyze(d, m0)
	staDur := time.Since(staT)
	stress0 := arch.ComputeStress(d, m0)
	stUp, stLow := stress0.Max(), stress0.Mean()

	// The delay budget every path must respect. The paper uses the
	// original CPD; extension E8 relaxes it toward the clock period
	// (identical synchronous performance, more wire slack).
	budget := res0.CPD
	if opts.CPDBudgetNs > budget {
		budget = opts.CPDBudgetNs
	}

	result := &Result{
		Mapping:       m0,
		OrigMaxStress: stUp,
		NewMaxStress:  stUp,
		OrigCPD:       res0.CPD,
		NewCPD:        res0.CPD,
		STTarget:      stUp,
		STLowerBound:  stLow,
	}
	result.Stats.TimingTime += staDur
	f := sinks.run(&result.Stats)

	// The run's root span; nested under TraceParent when the caller
	// provided one (RemapBoth arms, bench runs, the freeze fallback).
	// The context's trace/correlation ID, when present, is stamped on the
	// root so the span stream joins against the server's request log.
	rootAttrs := []obs.Attr{obs.String("mode", opts.Mode.String()),
		obs.Int64("seed", opts.Seed), obs.Int("ops", d.NumOps()), obs.Int("contexts", d.NumContexts)}
	if f.traceID != "" {
		rootAttrs = append(rootAttrs, obs.String("trace_id", f.traceID))
	}
	f.open(opts.TraceParent, "core.remap", rootAttrs...)
	// fallback is the work of a nested Freeze run whose floorplan lost to
	// this run's; it joins the returned Stats after this run's own
	// accounting, so the returned totals cover both runs.
	var fallback Stats
	defer func() {
		result.Stats.Elapsed = time.Since(start)
		f.end()
		f.close(err,
			obs.Bool("improved", result.Improved),
			obs.Float("st_lower_bound", result.STLowerBound),
			obs.Float("st_target", result.STTarget),
			obs.Float("new_max_stress", result.NewMaxStress),
			obs.Int("outer_iterations", result.Stats.OuterIterations))
		result.Stats.add(fallback)
	}()

	if stUp-stLow < 1e-12 {
		result.Status = milp.Optimal
		return result, nil // stress already perfectly level
	}

	// fail classifies an error return: a canceled context yields the
	// partial result (baseline mapping, stats so far) with Status
	// Canceled alongside ctx.Err(); anything else is a genuine failure.
	fail := func(err error) (*Result, error) {
		if cerr := ctx.Err(); cerr != nil {
			result.Status = milp.Canceled
			return result, cerr
		}
		return nil, err
	}

	batchList := contextBatches(d)

	// Step 2's timing inputs depend only on the baseline, so they are
	// derived here, outside every phase span (a phase's span lasts until
	// the next phase begins; see fold.phase). Step 2.1 freezes the
	// critical ops, none under a relaxed budget. Step 2.2 monitors the
	// paths within 20% of the delay budget; under a relaxed budget the
	// set may be empty, and the lazy repair rounds supply any rows.
	crit := map[int]bool{}
	if budget <= res0.CPD+1e-12 {
		crit = timing.CriticalOps(d, m0, res0, critEpsNs)
	}
	var paths []*timing.Path
	if frac := pathThresholdFrac * budget / res0.CPD; frac <= 1 {
		paths = timing.EnumeratePaths(d, m0, res0, timing.EnumerateOptions{
			ThresholdFrac: frac,
			MaxPaths:      maxPaths,
			MaxPerContext: maxPathsPerContext,
		})
	}

	// Step 1: the delay-unaware level the ST_target search starts from,
	// taken as the LPT level. It is an achievable budget, though not
	// always the lowest one (DESIGN.md §4b.3).
	s1T := time.Now()
	f.phase("step1", 0)
	stLB := arch.ComputeStress(d, GreedyLevel(d, nil)).Max()
	if stLB < stLow {
		stLB = stLow
	}
	f.phase("step1", stLB)
	f.event(flight.Event{Kind: flight.KindStep1Probe,
		ST: stLB, Status: "feasible", Cause: "greedy"})
	result.STLowerBound = stLB
	result.Stats.Step1Time += time.Since(s1T)

	// Step 2.1: critical-path freezing (and rotation in Rotate mode).
	rotT := time.Now()
	f.phase("rotate", 0)
	if opts.prior != nil {
		result.Resume = &ResumeInfo{}
	}
	var frozenPos map[int]arch.Coord
	// A seeded re-solve first tries the prior's frozen rotations: when
	// they still cover every critical op the rotation search is skipped
	// outright. Only meaningful in Rotate mode — Freeze recomputes the
	// original positions trivially. A bad reuse cannot corrupt results:
	// the probes verify CPD against the budget regardless of where the
	// frozen shapes sit.
	if opts.Mode == Rotate {
		if fp, ok := priorFrozen(d, crit, opts.prior); ok {
			frozenPos = fp
			result.Resume.FrozenReused = true
		}
	}
	if frozenPos == nil {
		frozenPos = rotateFrozen(ctx, d, m0, crit, opts, rng, f)
	}
	result.Stats.RotateTime += time.Since(rotT)
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	// The frozen ops alone put a floor under any achievable ST_target:
	// a PE stacked with frozen critical ops in several contexts cannot be
	// relieved (§V.B.1 — the motivation for rotation). Start there.
	frozenFloor := make([]float64, d.Fabric.NumPEs())
	addStress(d, frozenFloor, frozenPos)
	stStart := stLB
	for _, v := range frozenFloor {
		if v > stStart {
			stStart = v
		}
	}

	// Step 2.3: solve, relaxing ST_target by Delta on failure.
	delta := (stUp - stLow) * deltaFrac
	pathSeen := make(map[string]bool, len(paths))
	for _, p := range paths {
		pathSeen[pathIdent(p)] = true
	}

	// Basis snapshots shared across ST_target probes (consecutive probes
	// rebuild the same per-batch LPs with only the stress budget and lazy
	// path rows changed). The cache always records — the final slots are
	// exported on Result.Bases for delta re-solves — but serves bases
	// back only under Options.WarmHeuristics: the relaxation vertex
	// seeds the rounding dive's pin decisions, and a warm-started
	// relaxation lands on a different (equally optimal) vertex than a
	// cold one, so serving trades bit-identical floorplans for speed.
	probeCache := newWarmCache(len(batchList), opts.WarmHeuristics)
	if opts.prior != nil {
		result.Resume.BasesSeeded = probeCache.seed(opts.prior.Bases)
	}

	// probe attempts one ST_target: MILP solve (with lazy-path repair
	// rounds) followed by the Algorithm-1 CPD verification. Each probe
	// runs under a wall-clock budget (Options.TimeLimit) so a single
	// pathological budget cannot stall the whole search — on timeout the
	// probe counts as infeasible and the schedule moves on.
	// lastProbeStatus feeds the relax events' Cause: a relaxation is
	// triggered by whatever the previous probe concluded (infeasible,
	// cpd_regressed, timeout).
	lastProbeStatus := ""
	probe := func(st float64) (m arch.Mapping, cpd float64, feasible bool, err error) {
		f.phase("probe", st)
		status := "infeasible"
		defer func() {
			lastProbeStatus = status
			// The fold counts the outer iteration from this one event, so
			// the report's RelaxIterations always equals
			// Stats.OuterIterations.
			f.event(flight.Event{Kind: flight.KindProbe, ST: st, Status: status, Obj: cpd})
		}()
		var deadline time.Time
		if opts.TimeLimit > 0 {
			deadline = time.Now().Add(opts.TimeLimit)
		}
		for round := 0; round < pathRepairRounds; round++ {
			if err := ctx.Err(); err != nil {
				status = "canceled"
				return nil, 0, false, err
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				status = "timeout"
				return nil, 0, false, nil
			}
			s2T := time.Now()
			mNew, ok, err := solveAllBatches(ctx, d, m0, frozenPos, paths, st, budget, stress0, batchList, opts, rng, f, deadline, probeCache)
			result.Stats.Step2Time += time.Since(s2T)
			if err != nil {
				status = "error"
				return nil, 0, false, err
			}
			if !ok {
				if !deadline.IsZero() && time.Now().After(deadline) {
					// The batch loop bailed on the probe deadline, not on
					// a proven infeasibility.
					status = "timeout"
				}
				f.note("core.probe.round", obs.Int("round", round), obs.Bool("solved", false))
				return nil, 0, false, nil
			}
			staT := time.Now()
			newRes := timing.Analyze(d, mNew)
			result.Stats.TimingTime += time.Since(staT)
			f.note("core.probe.round", obs.Int("round", round), obs.Bool("solved", true),
				obs.Float("cpd", newRes.CPD), obs.Float("budget", budget), obs.Int("paths", len(paths)))
			if newRes.CPD <= budget+1e-9 {
				status = "feasible"
				return mNew, newRes.CPD, true, nil
			}
			// A path below the monitoring threshold regressed past the
			// CPD: add the violators as lazy rows and re-solve at the
			// same budget (see pathRepairRounds).
			repT := time.Now()
			added := 0
			for _, p := range violatedPaths(d, mNew, newRes, budget) {
				if id := pathIdent(p); !pathSeen[id] {
					pathSeen[id] = true
					paths = append(paths, p)
					added++
				}
			}
			result.Stats.TimingTime += time.Since(repT)
			f.note("core.probe.repair", obs.Int("round", round), obs.Int("added", added), obs.Int("paths", len(paths)))
			if added == 0 {
				// The CPD regressed past the budget and every violating
				// path is already constrained: more repair rounds cannot
				// help at this ST_target.
				status = "cpd_regressed"
				return nil, 0, false, nil
			}
		}
		status = "cpd_regressed"
		return nil, 0, false, nil
	}

	finish := func(m arch.Mapping, st, cpd float64) *Result {
		result.Status = milp.Feasible
		result.Mapping = m
		result.STTarget = st
		sm := arch.ComputeStress(d, m)
		result.NewMaxStress = sm.Max()
		result.NewCPD = cpd
		result.Improved = result.NewMaxStress < stUp-1e-12
		f.stress(d, sm, frozenPos)
		return result
	}

	searched := false
	// Seeded re-solve: probe the prior solve's ST_target first. On a
	// hit the budget search collapses to O(1) probes — one at the
	// prior target plus one refinement a Delta below it — instead of
	// the cold path's endpoint probes and O(log) bisection. On a
	// miss (the delta genuinely tightened the instance) nothing is
	// lost but the one probe: the cold search below runs as usual.
	skipStart := false
	if p := opts.prior; p != nil && p.STTarget > 0 {
		st1 := p.STTarget
		if st1 < stStart {
			st1 = stStart
		}
		if st1 > stUp {
			st1 = stUp
		}
		// Validate the prior floorplan directly before spending a
		// MILP probe: if it is still structurally valid, meets the
		// prior stress target on THIS design's stress rates, and
		// stays under the delay budget, it IS a feasible floorplan
		// at st1 — the bracket hit costs one timing analysis. A
		// MILP re-probe could not give that guarantee: the probe
		// pool's lazy path rows accumulate across a solve, so the
		// prior's winning probe is not reproducible in isolation.
		var m arch.Mapping
		var cpd float64
		ok := false
		if pm := p.Mapping; pm != nil && arch.ValidateMapping(d, pm) == nil &&
			arch.ComputeStress(d, pm).Max() <= st1+1e-9 {
			vT := time.Now()
			pres := timing.Analyze(d, pm)
			result.Stats.TimingTime += time.Since(vT)
			if pres.CPD <= budget+1e-9 {
				m, cpd, ok = pm, pres.CPD, true
				f.event(flight.Event{Kind: flight.KindProbe,
					Round: result.Stats.OuterIterations, ST: st1, Status: probePriorValidated, Obj: cpd})
			}
		}
		if !ok {
			var err error
			m, cpd, ok, err = probe(st1)
			if err != nil {
				return fail(err)
			}
		}
		if ok {
			result.Resume.BracketHit = true
			st0 := st1 - delta
			if st0 > stStart {
				if m2, cpd2, ok2, err := probe(st0); err != nil {
					return fail(err)
				} else if ok2 {
					m, st1, cpd = m2, st0, cpd2
				}
			}
			finish(m, st1, cpd)
			searched = true
		} else if st1 <= stStart+1e-15 {
			// The resume probe already was the stStart probe.
			skipStart = true
		}
	}
	// Bisection over [stStart, stUp]: same smallest-feasible budget
	// (within Delta), O(log) probes.
	if !searched && !skipStart {
		if m, cpd, ok, err := probe(stStart); err != nil {
			return fail(err)
		} else if ok {
			finish(m, stStart, cpd)
			searched = true
		}
	}
	if !searched {
		lo := stStart
		var bestM arch.Mapping
		var bestST, bestCPD float64
		hi := stUp
		// The jump from the failed stStart probe to ST_up is the
		// bisection's (single, coarse) relaxation; the interior
		// probes below refine it and appear in the probe table.
		f.event(flight.Event{Kind: flight.KindRelax,
			Round: result.Stats.OuterIterations, ST: stUp, F: stUp - stStart, Cause: lastProbeStatus})
		if m, cpd, ok, err := probe(stUp); err != nil {
			return fail(err)
		} else if ok {
			bestM, bestST, bestCPD = m, stUp, cpd
		}
		if bestM != nil {
			for hi-lo > delta {
				mid := (lo + hi) / 2
				m, cpd, ok, err := probe(mid)
				if err != nil {
					return fail(err)
				}
				if ok {
					bestM, bestST, bestCPD = m, mid, cpd
					hi = mid
				} else {
					lo = mid
				}
			}
			finish(bestM, bestST, bestCPD)
			searched = true
		} else {
			// Bisection assumes ST_up is feasible, which context
			// batching cannot guarantee (earlier batches may consume
			// budget at cells the originals occupied). Fall back to
			// the Algorithm-1 linear sweep, which probes the
			// intermediate budgets the bisection skipped: ST_target
			// swept upward by Delta, ending at ST_up.
			const maxOuter = 64
			for k := 0; result.Stats.OuterIterations < maxOuter; k++ {
				st := stStart + float64(k)*delta
				lastProbe := false
				if st >= stUp-1e-12 {
					st, lastProbe = stUp, true
				}
				if k > 0 {
					// Algorithm 1's `ST_target += Δ`, caused by
					// whatever the previous probe concluded.
					f.event(flight.Event{Kind: flight.KindRelax,
						Round: result.Stats.OuterIterations, ST: st, F: delta, Cause: lastProbeStatus})
				}
				m, cpd, ok, err := probe(st)
				if err != nil {
					return fail(err)
				}
				if ok {
					finish(m, st, cpd)
					searched = true
					break
				}
				if lastProbe {
					break
				}
			}
		}
	}
	// Classify what the search achieved. finish() already stamped
	// Feasible on success; an empty-handed run distinguishes a proven
	// infeasibility from one whose probes hit their time budget
	// (satellite fix: a budget-limited failure must not masquerade as
	// infeasibility — relaxing ST_target or raising TimeLimit may
	// succeed).
	if !searched {
		if result.Stats.ProbeTimeouts > 0 {
			result.Status = milp.NodeLimit
		} else {
			result.Status = milp.Infeasible
		}
	}

	// Export the re-solve artifact set (frozen rotations + final
	// per-batch bases). Harvested by the serve layer's delta API; the
	// freeze-fallback branch below returns the fallback run's own
	// artifacts instead when its floorplan wins.
	result.FrozenOps = make(map[int]arch.Coord, len(frozenPos))
	for op, pe := range frozenPos {
		result.FrozenOps[op] = pe
	}
	result.Bases = probeCache.export()

	// Rotation can make the frozen-path geometry unreachable from its
	// registered producers and consumers, especially on small context
	// counts — Table I itself shows Rotate == Freeze on the small
	// benchmarks. The Freeze configuration always admits the original
	// floorplan, so when rotation produced nothing better, fall back and
	// keep whichever floorplan is better.
	if freezeFallback && opts.Mode == Rotate && !result.Improved {
		fo := opts
		fo.Mode = Freeze
		fo.TraceParent = f.root // nest the fallback run under this one
		fr, err := remap(ctx, d, m0, fo, sinks, false)
		if err != nil {
			if fr != nil {
				fallback = fr.Stats
			}
			return fail(err)
		}
		if betterResult(fr, result) {
			fr.Stats.add(result.Stats)
			fr.FallbackToFreeze = true
			return fr, nil
		}
		fallback = fr.Stats
		return result, nil
	}
	return result, nil
}

// betterResult reports whether a is a better floorplan than b: lower
// maximum accumulated stress, ties broken by lower CPD.
func betterResult(a, b *Result) bool {
	if a.NewMaxStress != b.NewMaxStress {
		return a.NewMaxStress < b.NewMaxStress
	}
	return a.NewCPD < b.NewCPD
}

// RemapBoth runs the Freeze ablation and the complete Rotate method on
// the same baseline: Table I reports both columns, and a deployed flow
// keeps the better floorplan, so the Rotate result is never allowed to
// fall below the Freeze result. The two arms share no mutable state
// (each Remap derives its own rng from Options.Seed and clones the
// mapping), so they run concurrently.
func RemapBoth(ctx context.Context, d *arch.Design, m0 arch.Mapping, opts Options) (freeze, rotate *Result, err error) {
	// Precompute the design's lazily-built caches before the arms fork so
	// both reuse one copy instead of racing to build their own.
	d.Precompute()
	if ctx == nil {
		ctx = context.Background()
	}

	// Both arms write into one set of sinks (one span-ID space, one
	// journal; see Options.Flight for the interleaving caveat).
	sinks := newFold(ctx, opts)
	sinks.open(opts.TraceParent, "core.remap_both")

	var (
		wg                sync.WaitGroup
		freezeErr, rotErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		fo := opts
		fo.Mode = Freeze
		fo.TraceParent = sinks.root
		freeze, freezeErr = remap(ctx, d, m0, fo, sinks, false)
	}()
	go func() {
		defer wg.Done()
		ro := opts
		ro.Mode = Rotate
		ro.TraceParent = sinks.root
		// The Freeze arm is the Rotate arm's fallback, run once.
		rotate, rotErr = remap(ctx, d, m0, ro, sinks, false)
	}()
	wg.Wait()
	err = freezeErr
	if err == nil {
		err = rotErr
	}
	if err != nil {
		sinks.close(err)
		return nil, nil, err
	}
	if betterResult(freeze, rotate) {
		r := *freeze
		r.Stats = rotate.Stats
		r.FallbackToFreeze = true
		rotate = &r
	}
	sinks.close(nil, obs.Bool("fallback_to_freeze", rotate.FallbackToFreeze))
	return freeze, rotate, nil
}

// pathIdent returns a dedup key for a timing path (its op sequence and
// source, which determine its budget row).
func pathIdent(p *timing.Path) string {
	id := fmt.Sprintf("%d|%d", p.Context, p.Source)
	for _, op := range p.Ops {
		id += fmt.Sprintf(",%d", op)
	}
	return id
}

// violatedPaths lists paths of mapping m whose delay exceeds the original
// CPD — the sub-threshold paths that regressed after a re-mapping.
func violatedPaths(d *arch.Design, m arch.Mapping, res *timing.Result, origCPD float64) []*timing.Path {
	frac := origCPD / res.CPD
	if frac >= 1 {
		return nil
	}
	cand := timing.EnumeratePaths(d, m, res, timing.EnumerateOptions{
		ThresholdFrac: frac,
		MaxPaths:      128,
		MaxPerContext: 64,
	})
	var out []*timing.Path
	for _, p := range cand {
		if p.Delay > origCPD+1e-9 {
			out = append(out, p)
		}
	}
	return out
}

// solveAllBatches re-binds every non-frozen op, one context batch at a
// time, under the global stress budget st. Returns ok=false if any batch
// is infeasible. Each batch is journaled as one batch event, which ends
// the fold's core.batch span (with a construction-infeasibility note
// when buildBatch bailed early).
func solveAllBatches(ctx context.Context, d *arch.Design, m0 arch.Mapping, frozenPos map[int]arch.Coord,
	paths []*timing.Path, st, cpd float64, stress0 arch.StressMap,
	batchList [][]int, opts Options, rng *rand.Rand, f *fold, deadline time.Time,
	cache *warmCache) (arch.Mapping, bool, error) {

	mCur := m0.Clone()
	committed := make([]float64, d.Fabric.NumPEs())
	for op, pe := range frozenPos {
		mCur[op] = pe
	}
	addStress(d, committed, frozenPos)

	for bi, bctx := range batchList {
		inBatch := make(map[int]bool, len(bctx))
		for _, c := range bctx {
			inBatch[c] = true
		}
		var movable []int
		for op := 0; op < d.NumOps(); op++ {
			if !inBatch[d.Ctx[op]] {
				continue
			}
			if _, fr := frozenPos[op]; fr {
				continue
			}
			movable = append(movable, op)
		}
		f.batch(bi, len(batchList))
		if err := ctx.Err(); err != nil {
			f.event(flight.Event{Kind: flight.KindBatch,
				Batch: bi, N: len(movable), Status: "canceled"})
			return nil, false, err
		}
		cands := candidateSets(d, m0, stress0, frozenPos, movable, rng)
		bp := buildBatch(d, mCur, inBatch, frozenPos, cands, paths, st, committed, cpd)
		if bp.infeasibleReason != "" {
			f.note("core.batch.infeasible_construction", obs.String("reason", bp.infeasibleReason))
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			f.event(flight.Event{Kind: flight.KindBatch,
				Batch: bi, N: len(movable), M: bp.lp.NumRows(), Status: "timeout"})
			return nil, false, nil // probe budget exhausted
		}
		asn, ok, outcome, err := solveBatch(ctx, bp, opts, f, rng, deadline, cache, bi)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			// Attribute the failure to a constraint family for the flight
			// journal's infeasibility digest, re-solving with one family
			// relaxed at a time when the relaxation itself was infeasible.
			status, family := outcome, ""
			switch outcome {
			case "construction":
				status = "construction_infeasible"
				family = constructionFamily(bp.infeasibleReason)
			case "lp_infeasible":
				family = diagnoseInfeasible(ctx, bp)
			case "dive_failed":
				// The relaxation was feasible but no integral completion
				// exists (or was found): an assignment/integrality failure.
				family = flight.FamilyAssignment
			}
			f.event(flight.Event{Kind: flight.KindBatch,
				Batch: bi, N: len(movable), M: bp.lp.NumRows(), Status: status, Cause: family})
			return nil, false, nil
		}
		f.event(flight.Event{Kind: flight.KindBatch,
			Batch: bi, N: len(movable), M: bp.lp.NumRows(), Status: "solved"})
		for op, pe := range asn {
			mCur[op] = pe
		}
		addStress(d, committed, asn)
	}
	if err := arch.ValidateMapping(d, mCur); err != nil {
		return nil, false, fmt.Errorf("core: batched solution illegal: %w", err)
	}
	return mCur, true, nil
}
