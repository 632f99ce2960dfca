// Journal serialization and the explainability report derived from it.
//
// A Journal is the raw, replayable event log a Recorder captured; the
// Report is its synthesis — probe convergence table, relax timeline,
// rotation summary, warm-start tallies, infeasibility digest,
// and per-PE stress heatmap. Both serialize deterministically: no
// timestamps, no map iteration in ordered output, stable field order,
// so byte-identical solves produce byte-identical documents.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"agingfp/internal/viz"
)

// JournalSchema tags the journal JSON layout; readers reject other
// schemas so a stale file fails loudly. v2 dropped v1's branch-and-bound
// event kinds, event node/depth fields and node aggregate.
const JournalSchema = "agingfp-flight/v2"

// ReportSchema tags the rendered report JSON layout; v2 dropped v1's
// search block.
const ReportSchema = "agingfp-flight-report/v2"

// Journal is a recorder's exported state: the bounded event log plus
// the aggregates that kept counting past the bound.
type Journal struct {
	Schema     string             `json:"schema"`
	MaxEvents  int                `json:"max_events"`
	Dropped    int                `json:"dropped"`
	Aggregates Aggregates         `json:"aggregates"`
	Stress     *StressAttribution `json:"stress,omitempty"`
	// Kernel carries the solver-kernel profile when profiling was armed
	// (EnableKernel); it is absent otherwise.
	Kernel *Kernel `json:"kernel,omitempty"`
	Events []Event `json:"events"`
}

// WriteJSON writes the journal as indented JSON.
func (j *Journal) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// ReadJournal parses a journal and validates its schema tag.
func ReadJournal(r io.Reader) (*Journal, error) {
	var j Journal
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, fmt.Errorf("flight: bad journal: %w", err)
	}
	if j.Schema != JournalSchema {
		return nil, fmt.Errorf("flight: journal schema %q, want %q", j.Schema, JournalSchema)
	}
	return &j, nil
}

// ProbeRow is one line of a probe convergence table. Cause carries the
// step-1 feasibility certificate (greedy or milp) and is empty for
// outer probes.
type ProbeRow struct {
	Round  int     `json:"round"`
	ST     float64 `json:"st"`
	Status string  `json:"status"`
	Obj    float64 `json:"obj"`
	Cause  string  `json:"cause,omitempty"`
}

// RelaxRow is one Algorithm-1 relaxation: the new target, the delta
// applied, and which probe outcome forced it.
type RelaxRow struct {
	Round int     `json:"round"`
	ST    float64 `json:"st"`
	Delta float64 `json:"delta"`
	Cause string  `json:"cause"`
}

// RotationChoice is the orientation the winning restart chose for one
// context.
type RotationChoice struct {
	Ctx         int `json:"ctx"`
	Orientation int `json:"orientation"`
}

// RotationSummary condenses the rotation-restart tournament.
type RotationSummary struct {
	Restarts  int              `json:"restarts"`
	Winner    int              `json:"winner"`
	BestScore float64          `json:"best_score"`
	CrossArcs int              `json:"cross_arcs"`
	Choices   []RotationChoice `json:"choices,omitempty"`
}

// WarmSummary tallies warm-start outcomes by reject reason.
type WarmSummary struct {
	Accepts int64            `json:"accepts"`
	Rejects map[string]int64 `json:"rejects,omitempty"`
}

// NumericsSummary surfaces the LP layer's numerical-health counters.
type NumericsSummary struct {
	LPSolves         int64 `json:"lp_solves"`
	SimplexIters     int64 `json:"simplex_iters"`
	DegeneratePivots int64 `json:"degenerate_pivots"`
	Refactorizations int64 `json:"refactorizations"`
}

// Digest attributes failed probes to constraint families and names the
// dominant one.
type Digest struct {
	ByFamily map[string]int64 `json:"by_family"`
	// Blocker is the family with the most attributions; ties break by
	// severity order stress-budget > path-delay > assignment, since an
	// exhausted stress budget subsumes the others as an explanation.
	Blocker string `json:"blocker"`
}

// Summary is the report's headline numbers.
type Summary struct {
	// RelaxIterations counts Algorithm-1 outer probes — it equals
	// core.Stats.OuterIterations for the same solve.
	RelaxIterations int64   `json:"relax_iterations"`
	Step1Probes     int64   `json:"step1_probes"`
	Relaxations     int64   `json:"relaxations"`
	Batches         int64   `json:"batches"`
	FinalST         float64 `json:"final_st"`
	FinalStatus     string  `json:"final_status"`
	DroppedEvents   int     `json:"dropped_events"`
}

// Report is the explainability document synthesized from a journal.
type Report struct {
	Schema        string             `json:"schema"`
	Summary       Summary            `json:"summary"`
	Step1         []ProbeRow         `json:"step1,omitempty"`
	Probes        []ProbeRow         `json:"probes,omitempty"`
	Relaxes       []RelaxRow         `json:"relaxes,omitempty"`
	Rotation      *RotationSummary   `json:"rotation,omitempty"`
	Warm          WarmSummary        `json:"warm"`
	Numerics      NumericsSummary    `json:"numerics"`
	Infeasibility *Digest            `json:"infeasibility,omitempty"`
	Stress        *StressAttribution `json:"stress,omitempty"`
	// Kernel passes the journal's solver-kernel profile through when
	// profiling was armed.
	Kernel *Kernel `json:"kernel,omitempty"`
}

// BuildReport synthesizes a journal into a report. The pass over the
// events is order-preserving (events carry monotone Seq), so the same
// journal always yields the same report.
func BuildReport(j *Journal) *Report {
	r := &Report{Schema: ReportSchema}
	if j == nil {
		return r
	}
	agg := j.Aggregates
	r.Summary = Summary{
		RelaxIterations: agg.EventCounts[KindProbe],
		Step1Probes:     agg.EventCounts[KindStep1Probe],
		Relaxations:     agg.EventCounts[KindRelax],
		Batches:         agg.EventCounts[KindBatch],
		DroppedEvents:   j.Dropped,
	}
	r.Warm = WarmSummary{Accepts: agg.WarmAccepts, Rejects: copyCounts(agg.WarmRejects)}
	r.Numerics = NumericsSummary{
		LPSolves:         agg.LPSolves,
		SimplexIters:     agg.SimplexIters,
		DegeneratePivots: agg.DegeneratePivots,
		Refactorizations: agg.Refactorizations,
	}
	r.Stress = j.Stress
	r.Kernel = j.Kernel

	var rot *RotationSummary
	for _, e := range j.Events {
		switch e.Kind {
		case KindStep1Probe:
			r.Step1 = append(r.Step1, ProbeRow{Round: len(r.Step1) + 1, ST: e.ST, Status: e.Status, Obj: e.Obj, Cause: e.Cause})
		case KindProbe:
			r.Probes = append(r.Probes, ProbeRow{Round: e.Round, ST: e.ST, Status: e.Status, Obj: e.Obj})
			r.Summary.FinalST = e.ST
			r.Summary.FinalStatus = e.Status
		case KindRelax:
			r.Relaxes = append(r.Relaxes, RelaxRow{Round: e.Round, ST: e.ST, Delta: e.F, Cause: e.Cause})
		case KindRotate:
			if rot == nil {
				rot = &RotationSummary{}
			}
			rot.Winner = e.Round
			rot.BestScore = e.Obj
			rot.CrossArcs = e.N
		case KindRotateScore:
			if rot == nil {
				rot = &RotationSummary{}
			}
			rot.Restarts++
		case KindRotateCtx:
			if rot == nil {
				rot = &RotationSummary{}
			}
			rot.Choices = append(rot.Choices, RotationChoice{Ctx: e.Ctx, Orientation: e.Var})
		}
	}
	r.Rotation = rot

	if len(agg.InfeasibleFamilies) > 0 {
		r.Infeasibility = &Digest{
			ByFamily: copyCounts(agg.InfeasibleFamilies),
			Blocker:  dominantFamily(agg.InfeasibleFamilies),
		}
	}
	return r
}

// familyPriority orders constraint families for blocker tie-breaks.
var familyPriority = []string{FamilyStressBudget, FamilyPathDelay, FamilyAssignment}

func dominantFamily(counts map[string]int64) string {
	best, bestN := "", int64(-1)
	// Known families first in severity order, then any unknown families
	// alphabetically so the result never depends on map order.
	seen := make(map[string]bool, len(counts))
	ordered := make([]string, 0, len(counts))
	for _, f := range familyPriority {
		if _, ok := counts[f]; ok {
			ordered = append(ordered, f)
			seen[f] = true
		}
	}
	rest := make([]string, 0, len(counts))
	for f := range counts {
		if !seen[f] {
			rest = append(rest, f)
		}
	}
	sort.Strings(rest)
	ordered = append(ordered, rest...)
	for _, f := range ordered {
		if counts[f] > bestN {
			best, bestN = f, counts[f]
		}
	}
	return best
}

// JSON renders the report as deterministic indented JSON. Maps are the
// only unordered containers and encoding/json sorts their keys, so the
// bytes are a pure function of the journal.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// HeatmapSVG renders the per-PE stress-attribution heatmap (total
// accumulated stress per PE), or "" when the journal carried none.
func (r *Report) HeatmapSVG() string {
	if r.Stress == nil || len(r.Stress.Total) == 0 {
		return ""
	}
	return viz.HeatSVG("per-PE stress attribution", r.Stress.Total)
}

// Text renders the human-readable report: the tables an operator reads
// top to bottom to answer "what happened and why".
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== flight report (%s) ====\n", r.Schema)
	s := r.Summary
	fmt.Fprintf(&b, "relax iterations %d (step1 probes %d, relaxations %d, batches %d)\n",
		s.RelaxIterations, s.Step1Probes, s.Relaxations, s.Batches)
	if s.FinalStatus != "" {
		fmt.Fprintf(&b, "final: ST_target %.4f, status %s\n", s.FinalST, s.FinalStatus)
	}
	if s.DroppedEvents > 0 {
		fmt.Fprintf(&b, "note: %d events dropped at the recorder bound; aggregates remain exact\n", s.DroppedEvents)
	}

	if len(r.Step1) > 0 {
		fmt.Fprintf(&b, "\n-- step-1 binary search (ST_low) --\n")
		fmt.Fprintf(&b, "%5s  %9s  %-10s  %s\n", "probe", "ST", "verdict", "certificate")
		for _, p := range r.Step1 {
			fmt.Fprintf(&b, "%5d  %9.4f  %-10s  %s\n", p.Round, p.ST, p.Status, p.Cause)
		}
	}
	if len(r.Probes) > 0 {
		fmt.Fprintf(&b, "\n-- probe convergence --\n")
		fmt.Fprintf(&b, "%5s  %9s  %-13s  %9s\n", "round", "ST", "status", "CPD")
		for _, p := range r.Probes {
			if p.Obj != 0 {
				fmt.Fprintf(&b, "%5d  %9.4f  %-13s  %9.4f\n", p.Round, p.ST, p.Status, p.Obj)
			} else {
				fmt.Fprintf(&b, "%5d  %9.4f  %-13s  %9s\n", p.Round, p.ST, p.Status, "-")
			}
		}
	}
	if len(r.Relaxes) > 0 {
		fmt.Fprintf(&b, "\n-- relax timeline (ST_target += Δ) --\n")
		fmt.Fprintf(&b, "%5s  %9s  %9s  %s\n", "round", "new ST", "delta", "cause")
		for _, x := range r.Relaxes {
			fmt.Fprintf(&b, "%5d  %9.4f  %9.4f  %s\n", x.Round, x.ST, x.Delta, x.Cause)
		}
	}
	if rot := r.Rotation; rot != nil {
		fmt.Fprintf(&b, "\n-- rotation --\n")
		fmt.Fprintf(&b, "restarts %d, winner %d (score %.4f, cross-context arcs %d)\n",
			rot.Restarts, rot.Winner, rot.BestScore, rot.CrossArcs)
		if len(rot.Choices) > 0 {
			fmt.Fprintf(&b, "orientation per context:")
			for _, c := range rot.Choices {
				fmt.Fprintf(&b, " %d:%d", c.Ctx, c.Orientation)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	fmt.Fprintf(&b, "\n-- search --\n")
	fmt.Fprintf(&b, "warm starts: %d accepted", r.Warm.Accepts)
	if len(r.Warm.Rejects) > 0 {
		fmt.Fprintf(&b, ", rejected:")
		for _, k := range sortedKeys(r.Warm.Rejects) {
			fmt.Fprintf(&b, " %s=%d", k, r.Warm.Rejects[k])
		}
	}
	fmt.Fprintf(&b, "\n")
	n := r.Numerics
	fmt.Fprintf(&b, "numerics: %d LP solves, %d simplex iterations, %d degenerate pivots, %d refactorizations\n",
		n.LPSolves, n.SimplexIters, n.DegeneratePivots, n.Refactorizations)

	if k := r.Kernel; k != nil {
		fmt.Fprintf(&b, "\n-- solver kernel (profiled) --\n")
		fmt.Fprintf(&b, "%d profiled LP solves, %.2f ms measured, coverage %.1f%% (timing 1/%d iterations, refresh every %d)\n",
			k.Solves, float64(k.TotalNanos)/1e6, 100*k.Coverage(), k.SampleRate, k.RefreshEvery)
		fmt.Fprintf(&b, "basis: max %d rows x %d cols, binv %d bytes materialized; %d iterations, %d degenerate (longest run %d), %d refreshes\n",
			k.MaxM, k.MaxN, k.BinvBytes, k.Iters, k.Degenerate, k.MaxDegenerateRun, k.Refreshes)
		fmt.Fprintf(&b, "%-8s  %10s  %10s  %10s  %6s\n", "phase", "count", "sampled", "ms", "share")
		for _, name := range PhaseOrder {
			ph := k.Phases[name]
			if ph == nil {
				continue
			}
			share := 0.0
			if k.TotalNanos > 0 {
				share = 100 * float64(ph.Nanos) / float64(k.TotalNanos)
			}
			fmt.Fprintf(&b, "%-8s  %10d  %10d  %10.2f  %5.1f%%\n",
				name, ph.Count, ph.Sampled, float64(ph.Nanos)/1e6, share)
		}
		if len(k.FamilyPivots) > 0 {
			fmt.Fprintf(&b, "pivots by constraint family:")
			for _, fam := range sortedKeys(k.FamilyPivots) {
				fmt.Fprintf(&b, " %s=%d", fam, k.FamilyPivots[fam])
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	if d := r.Infeasibility; d != nil {
		fmt.Fprintf(&b, "\n-- infeasibility digest --\n")
		fmt.Fprintf(&b, "blocking constraint family: %s\n", d.Blocker)
		for _, k := range sortedKeys(d.ByFamily) {
			fmt.Fprintf(&b, "  %-14s %d\n", k, d.ByFamily[k])
		}
	}
	if st := r.Stress; st != nil && len(st.Total) > 0 {
		fmt.Fprintf(&b, "\n-- per-PE stress attribution (total / frozen share) --\n")
		for y := len(st.Total) - 1; y >= 0; y-- {
			for x := range st.Total[y] {
				frozen := 0.0
				if y < len(st.Frozen) && x < len(st.Frozen[y]) {
					frozen = st.Frozen[y][x]
				}
				fmt.Fprintf(&b, " %6.3f/%-6.3f", st.Total[y][x], frozen)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
