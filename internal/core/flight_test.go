package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/dfg"
	"agingfp/internal/flight"
)

// TestFlightRelaxCountMatchesStats pins the 1:1 pairing between probe
// events and Algorithm-1 outer iterations: the report's headline
// RelaxIterations must equal Stats.OuterIterations for the same solve,
// because probe() bumps the counter at entry and journals exactly one
// probe event on every exit path.
func TestFlightRelaxCountMatchesStats(t *testing.T) {
	skipUnderRace(t)
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)

	rec := flight.NewRecorder(0)
	opts := DefaultOptions()
	opts.Mode = Freeze
	opts.Flight = rec

	r, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	rep := flight.BuildReport(rec.Snapshot())
	if got, want := rep.Summary.RelaxIterations, int64(r.Stats.OuterIterations); got != want {
		t.Fatalf("report RelaxIterations = %d, Stats.OuterIterations = %d", got, want)
	}
	if rep.Summary.RelaxIterations == 0 {
		t.Fatal("no probe events journaled")
	}
	if len(rep.Probes) != int(rep.Summary.RelaxIterations) {
		t.Fatalf("probe table has %d rows, summary says %d iterations",
			len(rep.Probes), rep.Summary.RelaxIterations)
	}
	if rep.Summary.FinalStatus != "feasible" {
		t.Fatalf("final probe status = %q, want feasible", rep.Summary.FinalStatus)
	}
}

// TestFlightReportDeterministic pins the byte-determinism contract: two
// identical solves (same design, same seed) must journal byte-identical
// report JSON — events carry no timestamps, so reports are diffable
// across runs. The Rotate instance is small enough to run under -race
// and still journals an orientation table and several ST_target probes.
func TestFlightReportDeterministic(t *testing.T) {
	d, m0 := buildSmall(t, dfg.FIR(8), 4, 4)

	run := func() []byte {
		rec := flight.NewRecorder(0)
		opts := DefaultOptions()
		opts.Mode = Rotate
		opts.Seed = 7
		opts.Flight = rec
		if _, err := Remap(context.Background(), d, m0, opts); err != nil {
			t.Fatalf("Remap: %v", err)
		}
		rep := flight.BuildReport(rec.Snapshot())
		if rep.Rotation == nil || len(rep.Rotation.Choices) == 0 || len(rep.Probes) < 2 {
			t.Fatalf("report has rotation %+v and %d ST_target probes; want an orientation table and at least 2",
				rep.Rotation, len(rep.Probes))
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("report JSON: %v", err)
		}
		return js
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed reports differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestFlightStressBudgetBlocker drives the batch solver at a stress
// budget pinned far below the Step-1 lower bound — every PE's knapsack
// is then unsatisfiable — and asserts the infeasibility digest names
// stress-budget as the blocking constraint family, with the batch event
// carrying the same attribution.
func TestFlightStressBudgetBlocker(t *testing.T) {
	skipUnderRace(t)
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)

	rec := flight.NewRecorder(0)
	opts := DefaultOptions()
	opts.Mode = Freeze
	opts.Flight = rec
	stress0 := arch.ComputeStress(d, m0)

	// One batch over every context, no frozen ops, no path constraints:
	// the only constraint family that can fail at st -> 0 is the stress
	// knapsack.
	var all []int
	for c := 0; c < d.NumContexts; c++ {
		all = append(all, c)
	}
	var stats Stats
	rng := rand.New(rand.NewSource(1))
	_, ok, err := solveAllBatches(context.Background(), d, m0, nil, nil,
		1e-9, 0, stress0, [][]int{all}, opts, rng, newFold(opts).run(&stats), time.Time{}, nil)
	if err != nil {
		t.Fatalf("solveAllBatches: %v", err)
	}
	if ok {
		t.Fatal("batch solve succeeded at an impossible stress budget")
	}

	rep := flight.BuildReport(rec.Snapshot())
	if rep.Infeasibility == nil {
		t.Fatal("report has no infeasibility digest")
	}
	if rep.Infeasibility.Blocker != flight.FamilyStressBudget {
		t.Fatalf("digest blocker = %q, want %q (by_family: %v)",
			rep.Infeasibility.Blocker, flight.FamilyStressBudget, rep.Infeasibility.ByFamily)
	}
	var batchEvent *flight.Event
	for i, e := range rec.Snapshot().Events {
		if e.Kind == flight.KindBatch {
			batchEvent = &rec.Snapshot().Events[i]
		}
	}
	if batchEvent == nil {
		t.Fatal("no batch event journaled")
	}
	if batchEvent.Cause != flight.FamilyStressBudget {
		t.Fatalf("batch event blames %q, want %q", batchEvent.Cause, flight.FamilyStressBudget)
	}
}
