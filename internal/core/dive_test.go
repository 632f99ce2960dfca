package core_test

import (
	"runtime"
	"testing"

	"agingfp/internal/bench"
	"agingfp/internal/core"
	"agingfp/internal/place"
)

// batchDive returns BatchDive for a Table-I instance at its default
// placement.
func batchDive(tb testing.TB, name string) (int, func() (int, bool, error)) {
	tb.Helper()
	spec, ok := bench.SpecByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %s", name)
	}
	d, err := bench.Synthesize(spec)
	if err != nil {
		tb.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return core.BatchDive(d, m0)
}

// BenchmarkBatchDive times the relaxation and one rounding dive of
// B19's first Step-2.3 batch, the unit of work the Table-I flow repeats
// per batch and ST_target probe.
func BenchmarkBatchDive(b *testing.B) {
	_, dive := batchDive(b, "B19")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dive(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDiveAllocation bounds the bytes one relaxation and rounding dive
// of B19's first Step-2.3 batch allocates: under six dense m×m inverses
// (6·8·m² bytes) for the two solver storages it fills (the relaxation's
// and the dive's clone, which its re-solves reuse) and the per-solve
// arrays. Basis-inverse patterns that grow as lists per solve take the
// dive past it.
func TestDiveAllocation(t *testing.T) {
	if core.RaceDetectorEnabled {
		t.Skip("the race detector adds allocations")
	}
	rows, dive := batchDive(t, "B19")
	solves, ok, err := dive()
	if err != nil || solves < 2 {
		t.Fatalf("dive: %d LP solves, ok %v, err %v", solves, ok, err)
	}
	const dives = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < dives; i++ {
		if _, _, err := dive(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDive := float64(after.TotalAlloc-before.TotalAlloc) / dives
	if limit := 6 * 8 * float64(rows*rows); perDive >= limit {
		t.Fatalf("dive of m=%d (%d LP solves) allocates %.0f bytes, want under %.0f (6·8·m²)", rows, solves, perDive, limit)
	}
	t.Logf("m=%d, %d LP solves, integral %v: %.0f bytes per dive", rows, solves, ok, perDive)
}
