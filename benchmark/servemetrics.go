package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"agingfp/internal/core"
	"agingfp/internal/flight"
	"agingfp/internal/serve"
	"agingfp/internal/telemetry"
)

// failures counts requests that errored, were refused, or whose answer
// the checker rejected.
func failures(reqs []*request) (failed int, bad []string) {
	for _, r := range reqs {
		switch {
		case r.err != nil:
			failed++
			bad = append(bad, fmt.Sprintf("%s %s: %v", r.kind, r.inst.name, r.err))
		case len(r.bad) > 0:
			failed++
			for _, b := range r.bad {
				bad = append(bad, fmt.Sprintf("%s %s: %s", r.kind, r.inst.name, b))
			}
		}
	}
	return failed, bad
}

func ok(r *request) bool { return r.err == nil && len(r.bad) == 0 }

// serveEndToEnd computes the user-facing metrics of closed-loop passes
// over one plan from the scaled latencies: each request's median over
// the passes, and of those medians the geometric mean over the requests
// that ran the solver (cold and delta) and over every request; the 90th
// percentile over every request of every pass; and the MTTF increase
// the cold answers delivered.
func serveEndToEnd(passes [][]*request) map[string]float64 {
	var solver, each, all, gains []float64
	for i, r0 := range passes[0] {
		var v []float64
		for _, p := range passes {
			if r := p[i]; ok(r) {
				v = append(v, r.scaled)
				if r.kind == kindCold {
					gains = append(gains, r.res.MTTF.Increase)
				}
			}
		}
		if len(v) == 0 {
			continue
		}
		all = append(all, v...)
		each = append(each, median(v))
		if r0.solver() {
			solver = append(solver, median(v))
		}
	}
	return map[string]float64{
		"solve_ms_geomean":  geomean(solver),
		"op_ms_geomean":     geomean(each),
		"op_ms_p90":         percentile(all, 90),
		"mttf_gain_geomean": geomean(gains),
	}
}

// wallMs and scaledMs read a request's latency in ms as wall-clock and
// at the reference speed.
func wallMs(r *request) float64   { return ms(r.latency()) }
func scaledMs(r *request) float64 { return r.scaled }

// latencyClasses groups successful request latencies (ms, read by lat)
// by class: cold, delta, and hit (exact and semantic resubmits).
func latencyClasses(reqs []*request, lat func(*request) float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range reqs {
		if !ok(r) {
			continue
		}
		class := r.kind.String()
		if r.kind == kindExact || r.kind == kindSemantic {
			class = "hit"
		}
		out[class] = append(out[class], lat(r))
	}
	return out
}

// serveLayers computes the service-layer metrics of a finished plan:
// round trips, per-class latency, server-side queueing and solve time
// from the job snapshots, worker utilization, how late the poller and
// the generator ran, backlog growth, and the cache and delta outcomes.
func serveLayers(e *engine, reqs []*request) map[string]float64 {
	out := map[string]float64{}
	var submit, result, wait, solve, pollLag, genLag []float64
	var first, last time.Time
	var busy time.Duration
	var resubmits, hits, semReqs, semHits, deltas, seeded, deltaIters float64
	for _, r := range reqs {
		if r.jobID == "" {
			continue
		}
		submit = append(submit, us(r.submitRTT))
		if r.raw != nil {
			result = append(result, us(r.resultRTT))
		}
		if !r.deferred {
			genLag = append(genLag, ms(r.issued.Sub(r.effDue)))
		}
		s := r.snap
		if first.IsZero() || s.Submitted.Before(first) {
			first = s.Submitted
		}
		if s.Finished.After(last) {
			last = s.Finished
		}
		if r.solver() && !s.Started.IsZero() && !s.Finished.IsZero() {
			wait = append(wait, ms(s.Started.Sub(s.Submitted)))
			solve = append(solve, ms(s.Finished.Sub(s.Started)))
			busy += s.Finished.Sub(s.Started)
		}
		if !r.observed.IsZero() && !s.Finished.IsZero() {
			pollLag = append(pollLag, ms(r.observed.Sub(s.Finished)))
		}
		switch r.kind {
		case kindExact, kindSemantic:
			resubmits++
			hit := s.SolveKind == "exact_hit" || s.SolveKind == "semantic_hit"
			if hit {
				hits++
			}
			if r.kind == kindSemantic {
				semReqs++
				if s.SolveKind == "semantic_hit" {
					semHits++
				}
			}
		case kindDelta:
			deltas++
			if s.State == serve.StateDone && s.DeltaFallback == "" {
				seeded++
			}
			if r.res != nil {
				deltaIters += float64(r.res.Stats.SimplexIters)
			}
		}
	}
	classes := latencyClasses(reqs, wallMs)
	for _, c := range []string{"cold", "delta", "hit"} {
		out["serve."+c+"_ms_p50"] = percentile(classes[c], 50)
		out["serve."+c+"_ms_p90"] = percentile(classes[c], 90)
	}
	out["serve.submit_rtt_us"] = median(submit)
	out["serve.result_rtt_us"] = median(result)
	out["serve.queue_wait_ms_p50"] = percentile(wait, 50)
	out["serve.queue_wait_ms_p90"] = percentile(wait, 90)
	out["serve.solve_ms_p50"] = percentile(solve, 50)
	if span := last.Sub(first); span > 0 {
		out["serve.busy_frac"] = float64(busy) / float64(serveWorkers*span)
	}
	out["serve.poll_lag_ms"] = median(pollLag)
	out["serve.gen_lag_ms_p99"] = percentile(genLag, 99)
	out["serve.backlog_growth"] = backlogGrowth(e.backlog)
	out["serve.cache_hit_frac"] = ratio(hits, resubmits)
	out["serve.semantic_hit_frac"] = ratio(semHits, semReqs)
	out["serve.delta_seeded_frac"] = ratio(seeded, deltas)
	out["serve.delta_simplex_iters"] = ratio(deltaIters, deltas)
	return out
}

// backlogGrowth is the mean number of requests in flight over the last
// third of the schedule minus the mean over the first third: near zero
// when the server keeps up, growing with the run when it does not.
func backlogGrowth(samples []float64) float64 {
	n := len(samples) / 3
	if n == 0 {
		return 0
	}
	return mean(samples[len(samples)-n:]) - mean(samples[:n])
}

// serveDiag prints what the latency numbers rest on: per-class latency
// (read by lat) with the highest percentile that has ten samples beyond
// it.
func serveDiag(workload string, reqs []*request, lat func(*request) float64) []string {
	var lines []string
	classes := latencyClasses(reqs, lat)
	for _, c := range []string{"cold", "delta", "hit"} {
		v := classes[c]
		line := fmt.Sprintf("%s %s n=%d p50=%.3fms", workload, c, len(v), percentile(v, 50))
		if p := tailPercentile(len(v)); p > 0 {
			line += fmt.Sprintf(" p%g=%.3fms", p, percentile(v, p))
		}
		line += fmt.Sprintf(" max=%.3fms", percentile(v, 100))
		lines = append(lines, line)
	}
	return lines
}

// deferredLine prints how often a dependent request of an open-loop
// plan fell due before its base was answered and had to wait for it.
func deferredLine(workload string, reqs []*request) string {
	deferred := 0
	for _, r := range reqs {
		if r.deferred {
			deferred++
		}
	}
	return fmt.Sprintf("%s dependents that waited for their base: %d of %d requests", workload, deferred, len(reqs))
}

// journals fetches the flight journal of every request that ran the
// solver; the server keeps them while it runs.
func journals(ctx context.Context, svc *service, reqs []*request) (map[*request]*flight.Journal, error) {
	out := map[*request]*flight.Journal{}
	for _, r := range reqs {
		if !r.solver() || r.jobID == "" {
			continue
		}
		raw, err := svc.client.Report(ctx, r.jobID, "journal")
		if err != nil {
			return nil, fmt.Errorf("journal of %s: %w", r.jobID, err)
		}
		j, err := flight.ReadJournal(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		out[r] = j
	}
	return out, nil
}

// storedEvents reads back every wide event the stopped service wrote.
func storedEvents(dir string) ([]*telemetry.SolveEvent, error) {
	st, err := telemetry.OpenStore(dir, 0, 0)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var evs []*telemetry.SolveEvent
	_, _, err = st.Replay(func(ev *telemetry.SolveEvent) error {
		evs = append(evs, ev)
		return nil
	})
	return evs, err
}

// serveSolverOps reads the effort of each cold or delta job from the
// server's own records: its wide event (phase times and counters) and
// its flight journal (relaxations and the kernel profile).
func serveSolverOps(events []*telemetry.SolveEvent, js map[*request]*flight.Journal) []solverOp {
	byJob := map[string]*telemetry.SolveEvent{}
	for _, ev := range events {
		byJob[ev.JobID] = ev
	}
	dur := func(msec float64) time.Duration { return time.Duration(msec * 1e6) }
	var out []solverOp
	for r, j := range js {
		ev := byJob[r.jobID]
		if ev == nil {
			continue // the event was lost to a store error
		}
		op := solverOp{remapMs: ev.ElapsedMs, arms: 1, kernel: j.Kernel, stats: core.Stats{
			Step1Time: dur(ev.Step1Ms), RotateTime: dur(ev.RotateMs), Step2Time: dur(ev.Step2Ms), TimingTime: dur(ev.TimingMs),
			LPSolves: ev.LPSolves, SimplexIters: ev.SimplexIters, STProbes: ev.STProbes, ProbeTimeouts: ev.ProbeTimeouts,
			OuterIterations: int(j.Aggregates.EventCounts[flight.KindRelax]),
		}}
		if r.res != nil && r.res.Improved {
			op.improved = 1
		}
		out = append(out, op)
	}
	return out
}

// telemetryLayers measures the wide-event pipeline on the run's own
// events: each replayed into a fresh pipeline through Record, and the
// bytes the run's store holds per job.
func telemetryLayers(runDir string, events []*telemetry.SolveEvent) (map[string]float64, error) {
	var size int64
	segs, err := filepath.Glob(filepath.Join(runDir, "events-*.jsonl"))
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return nil, err
		}
		size += fi.Size()
	}
	dir, err := os.MkdirTemp(filepath.Dir(runDir), "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p, err := telemetry.Open(telemetry.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	var rec []float64
	for _, ev := range events {
		cp := *ev
		t := time.Now()
		p.Record(&cp)
		rec = append(rec, us(time.Since(t)))
	}
	if err := p.Close(); err != nil {
		return nil, err
	}
	return map[string]float64{
		"telemetry.record_us":     median(rec),
		"telemetry.bytes_per_job": ratio(float64(size), float64(len(events))),
	}, nil
}
