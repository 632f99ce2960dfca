package flight

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindProbe})
	r.NoteLP(3, 1, 1)
	r.NoteWarm(false, "singular")
	r.NoteInfeasible(FamilyStressBudget)
	r.SetStress(&StressAttribution{})
	if j := r.Snapshot(); j != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", j)
	}
}

func TestRecorderBounding(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindProbe, Round: i})
	}
	j := r.Snapshot()
	if len(j.Events) != 3 {
		t.Fatalf("stored %d events, want 3", len(j.Events))
	}
	if j.Dropped != 7 {
		t.Fatalf("dropped %d, want 7", j.Dropped)
	}
	// Aggregates keep counting past the bound.
	if got := j.Aggregates.EventCounts[KindProbe]; got != 10 {
		t.Fatalf("EventCounts[probe] = %d, want 10", got)
	}
	for i, e := range j.Events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestRecorderDefaultBound(t *testing.T) {
	r := NewRecorder(0)
	if r.max != DefaultMaxEvents {
		t.Fatalf("max = %d, want %d", r.max, DefaultMaxEvents)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	r.Record(Event{Kind: KindProbe, Round: 1, ST: 0.5, Status: "infeasible"})
	r.Record(Event{Kind: KindRelax, Round: 1, ST: 0.55, F: 0.05, Cause: "infeasible"})
	r.NoteLP(40, 2, 1)
	r.NoteWarm(true, "")
	r.NoteWarm(false, "dim_mismatch")
	r.NoteInfeasible(FamilyStressBudget)
	r.SetStress(&StressAttribution{W: 2, H: 1, Total: [][]float64{{1, 2}}, Frozen: [][]float64{{0.5, 0}}})
	j := r.Snapshot()

	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != JournalSchema {
		t.Fatalf("schema %q", back.Schema)
	}
	if len(back.Events) != len(j.Events) {
		t.Fatalf("events %d, want %d", len(back.Events), len(j.Events))
	}
	if back.Aggregates.SimplexIters != 40 || back.Aggregates.WarmAccepts != 1 {
		t.Fatalf("aggregates did not round-trip: %+v", back.Aggregates)
	}
	if back.Stress == nil || back.Stress.Total[0][1] != 2 {
		t.Fatalf("stress did not round-trip: %+v", back.Stress)
	}

	// A v1 journal is refused by name, like any other schema.
	for _, schema := range []string{"other/v9", "agingfp-flight/v1"} {
		_, err := ReadJournal(strings.NewReader(`{"schema":"` + schema + `"}`))
		if err == nil || !strings.Contains(err.Error(), schema) {
			t.Fatalf("schema %s: err = %v, want a rejection naming it", schema, err)
		}
	}
}

func TestSnapshotIsIsolated(t *testing.T) {
	r := NewRecorder(8)
	r.Record(Event{Kind: KindProbe})
	j := r.Snapshot()
	r.Record(Event{Kind: KindRelax})
	r.NoteWarm(false, "singular")
	if len(j.Events) != 1 {
		t.Fatalf("snapshot grew to %d events", len(j.Events))
	}
	if j.Aggregates.EventCounts[KindRelax] != 0 || len(j.Aggregates.WarmRejects) != 0 {
		t.Fatal("snapshot shares maps with the live recorder")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: KindPremap, N: i})
				r.NoteLP(1, 0, 0)
				r.NoteWarm(i%2 == 0, "stale_basis")
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	j := r.Snapshot()
	if got := j.Aggregates.EventCounts[KindPremap]; got != 800 {
		t.Fatalf("EventCounts[premap] = %d, want 800", got)
	}
	if j.Aggregates.LPSolves != 800 {
		t.Fatalf("LPSolves = %d, want 800", j.Aggregates.LPSolves)
	}
	if len(j.Events) != 64 || j.Dropped == 0 {
		t.Fatalf("bounding failed under concurrency: %d stored, %d dropped", len(j.Events), j.Dropped)
	}
}

func TestBuildReportSynthesis(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{Kind: KindStep1Probe, ST: 0.4, Status: "infeasible", Cause: "milp"})
	r.Record(Event{Kind: KindStep1Probe, ST: 0.6, Status: "feasible", Cause: "greedy"})
	r.Record(Event{Kind: KindProbe, Round: 1, ST: 0.6, Status: "infeasible"})
	r.Record(Event{Kind: KindRelax, Round: 1, ST: 0.65, F: 0.05, Cause: "infeasible"})
	r.Record(Event{Kind: KindProbe, Round: 2, ST: 0.65, Status: "feasible", Obj: 3.2})
	r.Record(Event{Kind: KindRotateScore, Round: 0, Obj: 5})
	r.Record(Event{Kind: KindRotateScore, Round: 1, Obj: 3})
	r.Record(Event{Kind: KindRotate, Round: 1, Obj: 3, N: 4})
	r.Record(Event{Kind: KindRotateCtx, Ctx: 0, Var: 2})
	r.Record(Event{Kind: KindRotateCtx, Ctx: 1, Var: 0})
	r.Record(Event{Kind: KindBatch, Batch: 0, Status: "solved"})
	r.Record(Event{Kind: KindBatch, Batch: 1, Status: "lp_infeasible", Cause: FamilyStressBudget})
	r.NoteInfeasible(FamilyStressBudget)

	rep := BuildReport(r.Snapshot())
	if rep.Summary.RelaxIterations != 2 {
		t.Fatalf("RelaxIterations = %d, want 2", rep.Summary.RelaxIterations)
	}
	if rep.Summary.FinalST != 0.65 || rep.Summary.FinalStatus != "feasible" {
		t.Fatalf("final = %v/%q", rep.Summary.FinalST, rep.Summary.FinalStatus)
	}
	if len(rep.Step1) != 2 || rep.Step1[1].Cause != "greedy" {
		t.Fatalf("step1 table wrong: %+v", rep.Step1)
	}
	if len(rep.Relaxes) != 1 || rep.Relaxes[0].Cause != "infeasible" {
		t.Fatalf("relax timeline wrong: %+v", rep.Relaxes)
	}
	if rep.Rotation == nil || rep.Rotation.Restarts != 2 || rep.Rotation.Winner != 1 || len(rep.Rotation.Choices) != 2 {
		t.Fatalf("rotation summary wrong: %+v", rep.Rotation)
	}
	if rep.Infeasibility == nil || rep.Infeasibility.Blocker != FamilyStressBudget {
		t.Fatalf("digest wrong: %+v", rep.Infeasibility)
	}
	txt := rep.Text()
	for _, want := range []string{"probe convergence", "relax timeline", "stress-budget", "rotation"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text report missing %q:\n%s", want, txt)
		}
	}
}

func TestDigestBlockerPriority(t *testing.T) {
	cases := []struct {
		counts map[string]int64
		want   string
	}{
		{map[string]int64{FamilyPathDelay: 3, FamilyStressBudget: 1}, FamilyPathDelay},
		{map[string]int64{FamilyPathDelay: 2, FamilyStressBudget: 2}, FamilyStressBudget},
		{map[string]int64{FamilyAssignment: 2, FamilyPathDelay: 2}, FamilyPathDelay},
		{map[string]int64{FamilyAssignment: 5}, FamilyAssignment},
		{map[string]int64{"mystery": 1, FamilyAssignment: 1}, FamilyAssignment},
	}
	for _, c := range cases {
		if got := dominantFamily(c.counts); got != c.want {
			t.Errorf("dominantFamily(%v) = %q, want %q", c.counts, got, c.want)
		}
	}
}

func TestReportJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRecorder(0)
		r.Record(Event{Kind: KindProbe, Round: 1, ST: 0.5, Status: "infeasible"})
		r.NoteWarm(false, "singular")
		r.NoteWarm(false, "dim_mismatch")
		r.NoteInfeasible(FamilyPathDelay)
		r.NoteInfeasible(FamilyStressBudget)
		r.Record(Event{Kind: KindBatch, Status: "lp_infeasible", Cause: FamilyPathDelay})
		r.Record(Event{Kind: KindBatch, Status: "dive_failed", Cause: FamilyAssignment})
		out, err := BuildReport(r.Snapshot()).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("report JSON not byte-identical:\n%s\n----\n%s", a, b)
	}
}

func TestHeatmapSVG(t *testing.T) {
	rep := BuildReport(&Journal{Schema: JournalSchema})
	if svg := rep.HeatmapSVG(); svg != "" {
		t.Fatal("heatmap without stress should be empty")
	}
	rep.Stress = &StressAttribution{W: 2, H: 2, Total: [][]float64{{1, 2}, {3, 4}}}
	svg := rep.HeatmapSVG()
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "stress attribution") {
		t.Fatalf("bad heatmap SVG: %.120s", svg)
	}
}
