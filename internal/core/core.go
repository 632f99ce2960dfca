// Package core implements the paper's contribution: the MILP-based
// delay- and aging-aware re-mapping flow for multi-context CGRRAs
// (Algorithm 1).
//
// Given a scheduled design and its aging-unaware baseline floorplan, the
// re-mapper produces a new operation-to-PE binding that levels the
// accumulated NBTI stress across the fabric — raising the MTTF — while
// provably not increasing the critical path delay:
//
//  1. Step 1 sets the per-PE accumulated stress budget ST_target that
//     the search starts from. The paper binary-searches delay-unaware
//     feasibility MILPs for a lower bound; this repo takes the LPT greedy
//     level (GreedyLevel), an achievable delay-unaware budget that tests
//     check against the exact min-max stress (DESIGN.md §4b.3).
//  2. Step 2.1 freezes each context's critical paths as rigid shapes and
//     rotates them among the 8 grid isometries to minimize the overlap of
//     critical-path operations on particular PEs (Rotate mode; Freeze
//     mode pins them at their original PEs).
//  3. Step 2.2 converts every near-critical timing path into a linear
//     wire-length budget (CPD - sum of PE delays) / unit wire delay.
//  4. Step 2.3 solves the full assignment MILP at ST_target, relaxing the
//     budget by a step Delta whenever the MILP is infeasible or the
//     re-timed CPD regressed, exactly as in Algorithm 1.
package core

import (
	"fmt"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/flight"
	"agingfp/internal/lp"
	"agingfp/internal/milp"
	"agingfp/internal/nbti"
	"agingfp/internal/obs"
	"agingfp/internal/thermal"
)

// Mode selects the critical-path handling strategy of Table I.
type Mode int

const (
	// Freeze pins critical-path ops at their original PEs (the paper's
	// "Freeze" columns).
	Freeze Mode = iota
	// Rotate additionally rotates each context's frozen critical paths
	// among the 8 grid isometries to minimize stacking (the paper's
	// "Rotate" columns — the complete method).
	Rotate
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Freeze:
		return "freeze"
	case Rotate:
		return "rotate"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// The parameters of Algorithm 1 are constants, not options. The first
// three are the paper's; the rest are the repo's own values.
const (
	// pathThresholdFrac keeps timing paths within this fraction of the
	// delay budget as monitored constraints (§V.B.2: paths within 20 %
	// of the CPD).
	pathThresholdFrac = 0.8
	// roundThreshold is the LP pre-mapping threshold (§V.A: assignments
	// whose relaxed value exceeds 0.95 are pre-mapped).
	roundThreshold = 0.95
	// deltaFrac is Algorithm 1's ST_target relaxation step Δ, as a
	// fraction of (ST_up - ST_low).
	deltaFrac = 1.0 / 16
	// maxPaths and maxPathsPerContext cap the monitored path set, the
	// paper's "M longest paths" (DESIGN.md §4b.9).
	maxPaths, maxPathsPerContext = 2048, 256
	// rotationRestarts is the number of random orientation pools Step
	// 2.1 scores (DESIGN.md §4b.9).
	rotationRestarts = 24
	// critEpsNs is the slack, in ns, under which an op is critical and
	// frozen in Step 2.1 (DESIGN.md §4b.9).
	critEpsNs = 1e-6
	// pathRepairRounds bounds the lazy-path repair rounds per ST_target
	// probe (DESIGN.md §4b.1).
	pathRepairRounds = 8
)

// Options tunes the re-mapper. The zero value is a valid Freeze run
// with seed 0 and no probe time limit; DefaultOptions is the Rotate run
// every tool starts from.
type Options struct {
	// Mode selects Freeze or Rotate.
	Mode Mode
	// TimeLimit is the wall-clock budget of one ST_target probe
	// (including its lazy-path repair rounds); on timeout the probe
	// counts as infeasible. 0 means unbounded.
	TimeLimit time.Duration
	// Seed drives rotation selection and candidate sampling.
	Seed int64
	// Trace receives structured spans, instant events, and (when a
	// registry is attached) metrics for the whole flow; see
	// internal/obs for the span taxonomy. nil falls back to the
	// context-carried tracer (obs.WithTracer); nil both ways disables
	// all instrumentation at zero cost, including zero allocations on
	// the solver hot paths.
	Trace *obs.Tracer
	// TraceParent, when live, nests this run's root span under it (how
	// RemapBoth groups its Freeze and Rotate arms, and how callers like
	// the bench harness attach runs to their own spans). The zero value
	// makes the run a trace root.
	TraceParent obs.Span
	// Flight, when non-nil, journals every decision Algorithm 1 makes —
	// the Step-1 level, relaxations, rotation scoring, pre-maps,
	// warm-start outcomes, infeasibility attributions, LP effort — into
	// the per-solve flight recorder (internal/flight). nil falls back to
	// the context-carried recorder (flight.WithRecorder); nil both ways
	// disables journaling at zero cost. A recorder armed with
	// EnableKernel turns on the LP kernel profiler for every solve of
	// the flow. Note: under RemapBoth the two concurrent arms interleave
	// their events in one journal; attach a recorder per Remap call when
	// per-arm ordering matters.
	Flight *flight.Recorder
	// CPDBudgetNs overrides the delay budget of the path constraints.
	// 0 (the default) uses the original floorplan's CPD, exactly as the
	// paper's formulation (3) does — the re-mapped CPD never exceeds the
	// original. Setting it to the clock period instead (extension E8)
	// exploits the fact that any CPD within the clock period has
	// identical performance on a synchronous CGRRA: paths gain wire
	// slack, fewer ops are frozen, and MTTF gains grow — still with zero
	// real performance cost. Values below the original CPD are ignored.
	CPDBudgetNs float64
	// WarmHeuristics enables simplex basis reuse inside the LP-rounding
	// heuristics: the per-batch relaxation warm-starts from the previous
	// probe's basis, and the rounding dive's re-solves reuse the last
	// optimal basis across pin rounds. This cuts simplex iterations
	// substantially, but a warm-started solve can land on a different
	// (equally optimal) LP vertex than a cold one, and the dive's pin
	// decisions read the vertex — so the produced floorplans may differ
	// from (and occasionally round worse than) the cold defaults, while
	// always remaining budget- and CPD-valid. Off by default so results
	// stay reproducible; the exact branch-and-bound layer (internal/milp)
	// always reuses bases, where it provably cannot change results.
	WarmHeuristics bool

	// prior carries a previous solve's artifacts for a seeded re-solve.
	// Unexported on purpose: the only entry point is RemapFromPrior,
	// which also opts into the warm heuristics the seeding relies on.
	prior *Prior
}

// Validate rejects nonsense option values with a descriptive error.
// Remap validates its options itself; Validate exists so configuration
// layers (flag parsing, the job server) can fail fast before queueing
// work.
func (o Options) Validate() error {
	if o.Mode != Freeze && o.Mode != Rotate {
		return fmt.Errorf("core: unknown Mode %d", int(o.Mode))
	}
	if o.TimeLimit < 0 {
		return fmt.Errorf("core: Options.TimeLimit %v is negative (0 means unbounded)", o.TimeLimit)
	}
	if o.CPDBudgetNs < 0 {
		return fmt.Errorf("core: Options.CPDBudgetNs %g is negative (0 uses the original CPD)", o.CPDBudgetNs)
	}
	return nil
}

// DefaultOptions is the complete method (Rotate) at seed 1, with a
// two-minute budget per ST_target probe.
func DefaultOptions() Options {
	return Options{
		Mode:      Rotate,
		TimeLimit: 2 * time.Minute,
		Seed:      1,
	}
}

// Stats records one run's solver effort.
//
// Duration convention: every duration in Stats is wall-clock, not CPU
// time — a phase that fans out over N workers accrues once, and a
// phase stalled on the scheduler still accrues. The per-phase fields
// (Step1Time, RotateTime, Step2Time, TimingTime) are additive effort
// totals: Stats.add sums them, so merged stats (e.g. a single-arm Rotate
// Remap that absorbed its Freeze fallback) report the combined work of every run
// folded in, and their sum can exceed the Elapsed of any single run.
// Elapsed is the opposite: the start-to-finish wall-clock of one run
// only. It is deliberately NOT summed by add — concurrent runs overlap
// in time, so adding their Elapsed would double-count the wall — and
// after a merge it still describes the run that carries the struct.
type Stats struct {
	// LPSolves counts simplex solves (the rounding dive's unit of work).
	// ILPSolves/ILPNodes are never set: the rounding dive replaced
	// branch and bound in the flow. They remain because the benchmark's
	// addStats sums them.
	LPSolves, ILPSolves int
	// ILPNodes is always 0 (see ILPSolves).
	ILPNodes int
	// STProbes counts Step-1 probes: one per run, the greedy level.
	STProbes int
	// ProbeTimeouts counts Step-2.3 ST_target probes abandoned on
	// Options.TimeLimit. A run that found nothing with timeouts on the
	// books reports Status NodeLimit, not Infeasible — the budget, not
	// the formulation, may be what failed.
	ProbeTimeouts int
	// OuterIterations counts Algorithm-1 ST_target relaxations.
	OuterIterations int
	// SimplexIters is the total simplex iteration count (primal and
	// dual) across every LP solve — the flow's true unit of work, and
	// the quantity warm starting reduces.
	SimplexIters int
	// WarmStarts / WarmStartRejects count LP solves that reused a prior
	// basis snapshot versus snapshots the LP layer rejected (cold
	// fallback). Their ratio is the health metric of the basis-reuse
	// plumbing: rejects should be rare.
	WarmStarts, WarmStartRejects int
	// Step1Time is wall-clock spent determining the Step-1 stress
	// lower bound (the greedy level).
	Step1Time time.Duration
	// RotateTime is wall-clock spent in Step 2.1 critical-path
	// freezing/rotation (orientation search included).
	RotateTime time.Duration
	// Step2Time is wall-clock spent solving the Step-2.3 assignment
	// MILPs (all batches of all probes, rounding dives included). The
	// STA verification between probes is accounted under TimingTime,
	// so the two do not overlap.
	Step2Time time.Duration
	// TimingTime is wall-clock spent in static timing analysis: the
	// initial baseline analysis, each probe's CPD verification, and
	// violated-path enumeration for the lazy repair rounds.
	TimingTime time.Duration
	// Elapsed is this run's total start-to-finish wall-clock time (see
	// the duration convention above: unlike the phase fields it is not
	// aggregated by add).
	Elapsed time.Duration
}

// add accumulates other into st. Every counter and every per-phase
// duration aggregates; only Elapsed is excluded, by the convention
// documented on Stats (it is one run's wall-clock span, and concurrent
// runs overlap, so summing it would double-count the wall).
func (st *Stats) add(other Stats) {
	st.LPSolves += other.LPSolves
	st.ILPSolves += other.ILPSolves
	st.ILPNodes += other.ILPNodes
	st.STProbes += other.STProbes
	st.ProbeTimeouts += other.ProbeTimeouts
	st.OuterIterations += other.OuterIterations
	st.SimplexIters += other.SimplexIters
	st.WarmStarts += other.WarmStarts
	st.WarmStartRejects += other.WarmStartRejects
	st.Step1Time += other.Step1Time
	st.RotateTime += other.RotateTime
	st.Step2Time += other.Step2Time
	st.TimingTime += other.TimingTime
}

// Result is the outcome of a re-mapping run.
type Result struct {
	// Status classifies the run's outcome with the solver layer's
	// vocabulary (milp.Status):
	//
	//	Optimal    — the baseline stress was already perfectly level;
	//	             nothing to do.
	//	Feasible   — the search produced a budget- and CPD-valid
	//	             floorplan (check Improved for whether it beats the
	//	             baseline).
	//	NodeLimit  — no floorplan found, but at least one probe was
	//	             abandoned on Options.TimeLimit, so infeasibility was
	//	             NOT proven; retrying with a larger budget (or a
	//	             relaxed ST_target) may succeed.
	//	Canceled   — the context was canceled mid-run; the Result carries
	//	             the statistics gathered so far and the baseline
	//	             mapping.
	//	Infeasible — every probe genuinely failed; the flow kept the
	//	             original floorplan.
	Status milp.Status
	// Mapping is the aging-aware floorplan (equals the input mapping if
	// no improvement was possible).
	Mapping arch.Mapping
	// STTarget is the accumulated-stress budget the solution satisfies.
	STTarget float64
	// STLowerBound is Step 1's delay-unaware level: the greedy level,
	// or ST_low if that is higher.
	STLowerBound float64
	// OrigMaxStress / NewMaxStress are the worst per-PE accumulated
	// stress before and after.
	OrigMaxStress, NewMaxStress float64
	// OrigCPD / NewCPD are the critical path delays before and after;
	// the flow guarantees NewCPD <= OrigCPD.
	OrigCPD, NewCPD float64
	// Improved reports whether the mapping changed.
	Improved bool
	// FallbackToFreeze reports that this result was produced in Rotate
	// mode but the rotated search found nothing better, so the Freeze
	// floorplan was substituted. Table-I "rotate" columns carrying this
	// flag are really freeze solutions and must not be read as evidence
	// that rotation helped.
	FallbackToFreeze bool
	// FrozenOps records the Step-2.1 frozen critical-op positions the
	// solution honors (rotated in Rotate mode, original in Freeze).
	// Together with Bases and the ST bracket it forms the artifact set
	// a delta re-solve of a near-identical design seeds from (see
	// Prior / RemapFromPrior).
	FrozenOps map[int]arch.Coord
	// Bases holds the final per-batch LP basis snapshots recorded
	// during the search, aligned with the run's context batching. nil
	// entries mean that batch never reached an optimal relaxation.
	Bases []*lp.Basis
	// Resume describes how a Prior was used; nil for cold solves.
	Resume *ResumeInfo
	// Stats records solver effort.
	Stats Stats
}

// ResumeInfo reports which parts of a Prior a seeded re-solve actually
// reused — the honesty ledger for the delta API's "warm" claim.
type ResumeInfo struct {
	// FrozenReused: Step 2.1 was skipped because the prior's frozen
	// rotations still cover this design's critical ops.
	FrozenReused bool
	// BasesSeeded is how many per-batch basis snapshots were imported
	// (each may still be rejected at the LP layer if the batch's shape
	// drifted; see Stats.WarmStartRejects).
	BasesSeeded int
	// BracketHit: the prior's ST_target bracket was probed first and
	// was feasible, collapsing the budget search to O(1) probes.
	BracketHit bool
}

// MTTFReport carries the reliability evaluation of one floorplan.
type MTTFReport struct {
	// Hours is the fabric MTTF.
	Hours float64
	// LimitingPE is the first-failing PE.
	LimitingPE arch.Coord
	// MaxStress is the worst per-PE accumulated stress.
	MaxStress float64
	// MaxTempK is the hottest steady-state PE temperature.
	MaxTempK float64
	// Temp is the full temperature map (kelvin, [y][x]).
	Temp [][]float64
	// Stress is the accumulated stress map.
	Stress arch.StressMap
}

// Evaluate computes the MTTF of design d under mapping m: stress map ->
// thermal map -> first-failing PE under the NBTI model (§III).
func Evaluate(d *arch.Design, m arch.Mapping, model nbti.Model, tcfg thermal.Config) (*MTTFReport, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	stress := arch.ComputeStress(d, m)
	power := thermal.PowerFromStress(stress, d.NumContexts, tcfg)
	temp, err := thermal.Solve(power, tcfg)
	if err != nil {
		return nil, err
	}
	hours, x, y, err := model.FabricMTTF(stress, temp, d.NumContexts)
	if err != nil {
		return nil, err
	}
	return &MTTFReport{
		Hours:      hours,
		LimitingPE: arch.Coord{X: x, Y: y},
		MaxStress:  stress.Max(),
		MaxTempK:   thermal.MaxK(temp),
		Temp:       temp,
		Stress:     stress,
	}, nil
}

// MTTFIncrease evaluates the headline metric of Table I: the ratio of the
// re-mapped floorplan's MTTF to the original floorplan's MTTF.
func MTTFIncrease(d *arch.Design, orig, remapped arch.Mapping, model nbti.Model, tcfg thermal.Config) (float64, error) {
	before, err := Evaluate(d, orig, model, tcfg)
	if err != nil {
		return 0, err
	}
	after, err := Evaluate(d, remapped, model, tcfg)
	if err != nil {
		return 0, err
	}
	return after.Hours / before.Hours, nil
}
