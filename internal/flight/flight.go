// Package flight is the per-solve flight recorder: a bounded,
// allocation-conscious journal of the structured decisions Algorithm 1
// makes while it runs — Step-1 probes, ST_target relaxations, rotation
// scoring, rounding-dive pre-maps, warm-start outcomes, and
// infeasibility attributions. Where internal/obs answers "how is the
// fleet doing?" with spans and counters, flight answers
// "why did THIS solve do what it did?" with a replayable event log and
// a derived explainability report (see report.go).
//
// The recorder is nil-safe throughout: every method on a nil *Recorder
// is a no-op, so solver layers journal unconditionally and pay nothing
// when no recorder is attached. It reaches the solver in
// core.Options.Flight and is bounded: past MaxEvents only the drop
// count and aggregates advance, so a runaway solve cannot exhaust memory.
package flight

import "sync"

// DefaultMaxEvents bounds a recorder whose caller did not choose a
// capacity. Large enough for every event of a B1..B27 solve, small
// enough that a server holding one journal per completed job stays
// cheap.
const DefaultMaxEvents = 4096

// Event kinds, one per decision family. The Kind string is the event's
// discriminator; which other fields are meaningful depends on it (see
// the Event field docs).
const (
	// KindStep1Probe is one feasibility probe of the Step-1 binary
	// search for ST_low: ST carries the probed target, Status the
	// verdict, Cause the certificate that decided it (greedy or milp).
	KindStep1Probe = "step1_probe"
	// KindProbe is one outer Algorithm-1 probe at a fixed ST_target:
	// Round is the 1-based outer iteration, Status the outcome
	// (feasible, infeasible, cpd_regressed, timeout, canceled, error),
	// Obj the resulting CPD when feasible.
	KindProbe = "probe"
	// KindRelax is one `ST_target += Δ` relaxation: ST is the new
	// target, F the delta applied, Cause the triggering probe status.
	KindRelax = "relax"
	// KindRotateScore is one scored rotation restart: Round is the
	// restart index, Obj the overlap score, N the cross-context arcs.
	KindRotateScore = "rotate_score"
	// KindRotate is the rotation winner: Round the winning restart,
	// Obj its score, N its cross-context arc count.
	KindRotate = "rotate"
	// KindRotateCtx is the orientation chosen for one context by the
	// winning restart: Ctx the context, Var the orientation index.
	KindRotateCtx = "rotate_ctx"
	// KindBatch is one assignment-MILP batch solve: Batch is the batch
	// index, N the movable ops, M the LP rows, Status the outcome
	// (solved, construction_infeasible, lp_infeasible, iterlimit,
	// dive_failed, timeout, canceled), Cause the constraint family
	// blamed when infeasible.
	KindBatch = "batch"
	// KindPremap is one bulk pre-map round of the rounding dive: Batch
	// and Round (dive restart) locate it, N counts variables pinned at
	// the rounding threshold, M the variables still fractional after.
	KindPremap = "premap"
	// KindDive is the end of one rounding-dive restart: Status is
	// integral or failed, N the pins placed, Round the restart index.
	KindDive = "dive"
	// KindWarmReject is a refused warm start: Cause is the reason
	// (dim_mismatch, stale_basis, singular).
	KindWarmReject = "warm_reject"
	// KindInfeasible attributes one failed probe to a constraint
	// family: Cause is stress-budget, path-delay, or assignment.
	KindInfeasible = "infeasible"
)

// Constraint families an infeasible probe can be attributed to.
const (
	FamilyStressBudget = "stress-budget"
	FamilyPathDelay    = "path-delay"
	FamilyAssignment   = "assignment"
)

// Additional row families used only by the kernel profiler's pivot
// attribution (they never block feasibility on their own, so the
// infeasibility diagnosis does not relax them).
const (
	FamilyCapacity = "capacity"
	FamilyWireAxis = "wire-axis"
)

// Event is one journaled decision. It is a flat value struct — no
// pointers, no interfaces — so recording is one slice append and the
// journal serializes deterministically. Fields beyond Seq/Kind are
// meaningful per kind (see the Kind* docs); unused ones stay zero.
type Event struct {
	Seq    int     `json:"seq"`
	Kind   string  `json:"kind"`
	ST     float64 `json:"st"`
	Obj    float64 `json:"obj"`
	F      float64 `json:"f"`
	Status string  `json:"status,omitempty"`
	Cause  string  `json:"cause,omitempty"`
	Round  int     `json:"round"`
	Batch  int     `json:"batch"`
	Ctx    int     `json:"ctx"`
	Var    int     `json:"var"`
	N      int     `json:"n"`
	M      int     `json:"m"`
}

// Aggregates are counters that keep advancing even after the event
// buffer is full, so the journal's totals stay truthful under drops.
type Aggregates struct {
	LPSolves         int64 `json:"lp_solves"`
	SimplexIters     int64 `json:"simplex_iters"`
	DegeneratePivots int64 `json:"degenerate_pivots"`
	Refactorizations int64 `json:"refactorizations"`
	WarmAccepts      int64 `json:"warm_accepts"`
	// WarmRejects counts refused warm starts by reason (dim_mismatch,
	// stale_basis, singular).
	WarmRejects map[string]int64 `json:"warm_rejects,omitempty"`
	// InfeasibleFamilies counts infeasibility attributions by
	// constraint family; the report's digest derives its blocker from
	// this map.
	InfeasibleFamilies map[string]int64 `json:"infeasible_families,omitempty"`
	// EventCounts counts recorded events by kind, including dropped
	// ones, so "how many probes ran" never depends on the bound.
	EventCounts map[string]int64 `json:"event_counts,omitempty"`
}

// StressAttribution is the per-PE decomposition behind the report's
// heatmap: Total is each PE's accumulated stress under the final
// floorplan and Frozen the share contributed by frozen (carried-over)
// assignments, so Total-Frozen is what the re-mapping itself placed.
type StressAttribution struct {
	W      int         `json:"w"`
	H      int         `json:"h"`
	Total  [][]float64 `json:"total"`
	Frozen [][]float64 `json:"frozen"`
}

// Recorder journals events for one solve. Create with NewRecorder,
// pass it to the solve in core.Options.Flight, then Snapshot after the
// solve returns. All methods are safe for concurrent use and are
// no-ops on a nil receiver.
type Recorder struct {
	mu      sync.Mutex
	max     int
	seq     int
	dropped int
	events  []Event
	agg     Aggregates
	stress  *StressAttribution

	// Kernel profiling state (see kernel.go); armed by EnableKernel,
	// populated by NoteKernel. kernel stays nil when unarmed so existing
	// journals serialize unchanged.
	kernelOn   bool
	kernelRate int
	kernel     *Kernel
}

// NewRecorder returns a recorder bounded to max events; max <= 0
// selects DefaultMaxEvents.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxEvents
	}
	return &Recorder{max: max}
}

// Record journals one event, assigning its sequence number. Past the
// bound the event is counted (dropped, EventCounts) but not stored.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.seq
	r.seq++
	if r.agg.EventCounts == nil {
		r.agg.EventCounts = make(map[string]int64)
	}
	r.agg.EventCounts[e.Kind]++
	if len(r.events) < r.max {
		r.events = append(r.events, e)
	} else {
		r.dropped++
	}
}

// NoteLP accumulates one LP solve's effort and numerical-health
// counters (degenerate pivots taken, basis refactorizations).
func (r *Recorder) NoteLP(iters, degenerate, refactorizations int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg.LPSolves++
	r.agg.SimplexIters += int64(iters)
	r.agg.DegeneratePivots += int64(degenerate)
	r.agg.Refactorizations += int64(refactorizations)
}

// NoteWarm tallies one warm-start outcome; rejects also journal a
// warm_reject event carrying the reason.
func (r *Recorder) NoteWarm(accepted bool, reason string) {
	if r == nil {
		return
	}
	if accepted {
		r.mu.Lock()
		r.agg.WarmAccepts++
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	if r.agg.WarmRejects == nil {
		r.agg.WarmRejects = make(map[string]int64)
	}
	r.agg.WarmRejects[reason]++
	r.mu.Unlock()
	r.Record(Event{Kind: KindWarmReject, Cause: reason})
}

// NoteInfeasible attributes one failed probe to a constraint family
// and journals the attribution.
func (r *Recorder) NoteInfeasible(family string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.agg.InfeasibleFamilies == nil {
		r.agg.InfeasibleFamilies = make(map[string]int64)
	}
	r.agg.InfeasibleFamilies[family]++
	r.mu.Unlock()
	r.Record(Event{Kind: KindInfeasible, Cause: family})
}

// SetStress attaches the per-PE stress attribution computed from the
// final floorplan; the last call wins.
func (r *Recorder) SetStress(s *StressAttribution) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stress = s
}

// Snapshot copies the journal out of the recorder. The copy is deep
// for everything the recorder itself may still mutate, so callers can
// serialize it while the solve (or another snapshot) continues.
func (r *Recorder) Snapshot() *Journal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j := &Journal{
		Schema:     JournalSchema,
		MaxEvents:  r.max,
		Dropped:    r.dropped,
		Aggregates: r.agg,
		Stress:     r.stress,
		Kernel:     r.kernel.clone(),
		Events:     append([]Event(nil), r.events...),
	}
	j.Aggregates.WarmRejects = copyCounts(r.agg.WarmRejects)
	j.Aggregates.InfeasibleFamilies = copyCounts(r.agg.InfeasibleFamilies)
	j.Aggregates.EventCounts = copyCounts(r.agg.EventCounts)
	return j
}

func copyCounts(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
