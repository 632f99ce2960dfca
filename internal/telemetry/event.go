// Package telemetry is the longitudinal solve-observability layer: one
// wide event per completed job (CLI run or agingfloord submission),
// appended to a durable size-rotated JSONL store, and aggregated into
// time-windowed percentile summaries that also pick out slow-outlier
// solves.
//
// Where internal/obs answers "how is the process doing right now?" with
// live counters and spans, and internal/flight answers "why did THIS
// solve do what it did?" with a per-solve journal, telemetry answers
// "how has the solver been doing over the last hours and across
// restarts?" — the continuous-profiling view a long-running service
// needs to check the paper's minutes-scale-solve claim against live
// traffic instead of one-shot snapshots.
//
// The package is nil-safe throughout: every method on a nil *Pipeline
// is a no-op, so callers wire it unconditionally and pay nothing when
// telemetry is disabled.
package telemetry

import (
	"fmt"
	"time"

	"agingfp/internal/core"
	"agingfp/internal/flight"
)

// Source values for SolveEvent.Source.
const (
	SourceServe = "serve" // an agingfloord job
	SourceCLI   = "cli"   // a one-shot agingfloor run
)

// SolveEvent is the wide event one completed solve emits: everything an
// operator needs to slice solver behavior after the fact, denormalized
// into one flat record. One event per job — cache hits included (they
// count toward throughput and hit-rate but are excluded from solve-time
// percentiles, which describe actual solver runs).
type SolveEvent struct {
	// Time is the completion wall-clock timestamp. The store preserves
	// it verbatim, so replayed history lands in the right aggregation
	// cells after a restart.
	Time time.Time `json:"time"`
	// Source is serve or cli.
	Source string `json:"source"`
	// JobID / TraceID join the event with the job API, logs and spans.
	JobID   string `json:"job_id,omitempty"`
	TraceID string `json:"trace_id,omitempty"`

	// Tenant is the accounting identity the job ran under (serve's
	// X-Tenant header, defaulted to "anon"). Stored post-rollup: when the
	// daemon's tenant-cardinality cap is exceeded the overflow identity
	// is already "other" here, so the durable history keeps a bounded
	// label set no matter what clients send. Empty on CLI events.
	Tenant string `json:"tenant,omitempty"`

	// Bench is the workload name (Table-I benchmark or design name).
	Bench string `json:"bench,omitempty"`
	// Ops / Contexts are the workload shape; ShapeBucket groups them.
	Ops      int    `json:"ops,omitempty"`
	Contexts int    `json:"contexts,omitempty"`
	Mode     string `json:"mode,omitempty"`

	// Status is the job's terminal state (done, failed, canceled) — or,
	// for CLI runs, the solver's typed status string.
	Status string `json:"status"`
	// CacheHit marks a job answered from the content-addressed cache
	// without running the solver.
	CacheHit bool `json:"cache_hit,omitempty"`
	// SolveKind says how the answer was produced: "cold" (full solve),
	// "exact_hit" / "semantic_hit" (cache tiers), or "delta" (re-solve
	// seeded from a prior job's artifacts). Empty on CLI events.
	SolveKind string `json:"solve_kind,omitempty"`
	Error     string `json:"error,omitempty"`

	// ElapsedMs is the solve wall-clock; QueueWaitMs the time between
	// submission and a worker picking the job up (serve only).
	ElapsedMs   float64 `json:"elapsed_ms"`
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`

	// Per-phase wall-clock, matching core.Stats.
	Step1Ms  float64 `json:"step1_ms,omitempty"`
	RotateMs float64 `json:"rotate_ms,omitempty"`
	Step2Ms  float64 `json:"step2_ms,omitempty"`
	TimingMs float64 `json:"timing_ms,omitempty"`

	// Solver-effort counters, matching core.Stats.
	LPSolves      int `json:"lp_solves,omitempty"`
	SimplexIters  int `json:"simplex_iters,omitempty"`
	STProbes      int `json:"st_probes,omitempty"`
	ProbeTimeouts int `json:"probe_timeouts,omitempty"`
	WarmStarts    int `json:"warm_starts,omitempty"`
	WarmRejects   int `json:"warm_rejects,omitempty"`

	// Per-phase simplex-kernel wall-clock from the LP kernel profiler,
	// summed across the job's profiled LP solves. Present only when
	// kernel profiling was armed for the job (see flight.EnableKernel);
	// zero otherwise and omitted from the JSON.
	LPSetupMs   float64 `json:"lp_setup_ms,omitempty"`
	LPPricingMs float64 `json:"lp_pricing_ms,omitempty"`
	LPFtranMs   float64 `json:"lp_ftran_ms,omitempty"`
	LPRatioMs   float64 `json:"lp_ratio_ms,omitempty"`
	LPUpdateMs  float64 `json:"lp_update_ms,omitempty"`
	LPRefreshMs float64 `json:"lp_refresh_ms,omitempty"`
}

// FillStats copies a solve's per-phase wall-clock and effort counters
// into the event's solver fields. ElapsedMs is left to the caller: a
// served job times its whole execution, a CLI run its solve.
func (e *SolveEvent) FillStats(st core.Stats) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	e.Step1Ms = ms(st.Step1Time)
	e.RotateMs = ms(st.RotateTime)
	e.Step2Ms = ms(st.Step2Time)
	e.TimingMs = ms(st.TimingTime)
	e.LPSolves = st.LPSolves
	e.SimplexIters = st.SimplexIters
	e.STProbes = st.STProbes
	e.ProbeTimeouts = st.ProbeTimeouts
	e.WarmStarts = st.WarmStarts
	e.WarmRejects = st.WarmStartRejects
}

// FillKernel copies one kernel snapshot's per-phase extrapolated
// wall-clock into the event's flat LP*Ms fields. Nil-safe, so callers
// pass flight.Recorder.KernelSnapshot() unconditionally.
func (e *SolveEvent) FillKernel(k *flight.Kernel) {
	if k == nil {
		return
	}
	ms := func(name string) float64 {
		if ph := k.Phases[name]; ph != nil {
			return float64(ph.Nanos) / 1e6
		}
		return 0
	}
	e.LPSetupMs = ms(flight.PhaseSetup)
	e.LPPricingMs = ms(flight.PhasePricing)
	e.LPFtranMs = ms(flight.PhaseFtran)
	e.LPRatioMs = ms(flight.PhaseRatio)
	e.LPUpdateMs = ms(flight.PhaseUpdate)
	e.LPRefreshMs = ms(flight.PhaseRefresh)
}

// PhaseMs returns the event's non-zero kernel phase times keyed by
// flight's phase names; empty for unprofiled jobs.
func (e *SolveEvent) PhaseMs() map[string]float64 {
	all := map[string]float64{
		flight.PhaseSetup:   e.LPSetupMs,
		flight.PhasePricing: e.LPPricingMs,
		flight.PhaseFtran:   e.LPFtranMs,
		flight.PhaseRatio:   e.LPRatioMs,
		flight.PhaseUpdate:  e.LPUpdateMs,
		flight.PhaseRefresh: e.LPRefreshMs,
	}
	out := make(map[string]float64, len(all))
	for name, v := range all {
		if v > 0 {
			out[name] = v
		}
	}
	return out
}

// Solved reports whether the event describes a solver run whose elapsed
// time belongs in the latency percentiles: a job that finished the
// solver, not a cache replay and not a failure (a canceled 2-second job
// says nothing about solve latency). Exported so the SLO engine
// (internal/slo) classifies events with the same predicate the
// aggregation windows use.
func (e *SolveEvent) Solved() bool {
	return !e.CacheHit && (e.Status == "done" || e.Status == "optimal" || e.Status == "feasible")
}

// Failed reports a job that ended in an error state.
func (e *SolveEvent) Failed() bool {
	return e.Status == "failed" || e.Status == "infeasible" || e.Status == "error"
}

// Canceled reports a job that was canceled (operator or deadline).
func (e *SolveEvent) Canceled() bool { return e.Status == "canceled" }

// ShapeBucket groups workloads of similar size so percentiles compare
// like with like: ops and contexts are rounded up to the next power of
// two (floored at 16 and 4 — below that everything is "tiny" and the
// distinction is noise). A B7-sized job (88 ops, 16 contexts) lands in
// "ops<=128,ctx<=16" alongside every similarly sized submission.
func (e *SolveEvent) ShapeBucket() string {
	return fmt.Sprintf("ops<=%d,ctx<=%d", ceilPow2(e.Ops, 16), ceilPow2(e.Contexts, 4))
}

// ceilPow2 rounds n up to the next power of two, at least floor.
func ceilPow2(n, floor int) int {
	p := floor
	for p < n {
		p <<= 1
	}
	return p
}
