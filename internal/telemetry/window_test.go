package telemetry

import (
	"testing"
	"time"
)

// fixedClock returns a controllable now() for the aggregator.
type fixedClock struct{ t time.Time }

func (c *fixedClock) now() time.Time { return c.t }

var testBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func solvedEvent(at time.Time, bench string, ops, contexts int, elapsedMs float64) *SolveEvent {
	return &SolveEvent{
		Time: at, Source: SourceServe, Bench: bench,
		Ops: ops, Contexts: contexts,
		Status: "done", ElapsedMs: elapsedMs, QueueWaitMs: 1,
		SimplexIters: int(elapsedMs) * 10, LPSolves: int(elapsedMs),
	}
}

func TestAggregatorWindowing(t *testing.T) {
	clock := &fixedClock{t: testBase}
	a := NewAggregator(time.Minute, 30, 0.02, clock.now)

	// One event per minute for the trailing 10 minutes.
	for i := 0; i < 10; i++ {
		a.Record(solvedEvent(testBase.Add(-time.Duration(i)*time.Minute), "B1", 20, 4, 100))
	}
	if st := a.Stats(a.Span()); st.Jobs != 10 {
		t.Fatalf("full-span jobs = %d, want 10", st.Jobs)
	}
	// A 5-minute window sees at most the 5-6 newest cells (the boundary
	// cell is included per the truncation rule), never all 10.
	st := a.Stats(5 * time.Minute)
	if st.Jobs < 5 || st.Jobs > 6 {
		t.Fatalf("5m-window jobs = %d, want 5..6", st.Jobs)
	}
	if st.Total.Solved != st.Jobs {
		t.Fatalf("solved = %d, want %d (all events are done)", st.Total.Solved, st.Jobs)
	}
	if st.Total.P50Ms < 90 || st.Total.P50Ms > 110 {
		t.Fatalf("p50 = %g, want ~100 within sketch error", st.Total.P50Ms)
	}

	// A 30-minute-old event lies in the oldest cell of the full-span
	// window and is kept.
	before := a.Stats(a.Span()).Jobs
	a.Record(solvedEvent(testBase.Add(-30*time.Minute), "B1", 20, 4, 100))
	if after := a.Stats(a.Span()).Jobs; after != before+1 {
		t.Fatalf("event inside the full-span window: totals %d -> %d, want +1", before, after)
	}
	// Events beyond the ring horizon are dropped: a 30-minute ring wraps
	// a 31-minute-old event onto the newest cell's slot, which is
	// occupied by a newer start and must win.
	before++
	a.Record(solvedEvent(testBase.Add(-31*time.Minute), "B1", 20, 4, 100))
	if after := a.Stats(a.Span()).Jobs; after != before {
		t.Fatalf("event older than the ring changed totals: %d -> %d", before, after)
	}
}

func TestAggregatorShapeAndBenchBreakdowns(t *testing.T) {
	clock := &fixedClock{t: testBase}
	a := NewAggregator(time.Minute, 60, 0.02, clock.now)

	for i := 0; i < 8; i++ {
		a.Record(solvedEvent(testBase, "B1", 20, 4, 50))   // ops<=32,ctx<=4
		a.Record(solvedEvent(testBase, "B7", 88, 16, 400)) // ops<=128,ctx<=16
	}
	// Failures and cache hits count toward jobs but not latency.
	fail := solvedEvent(testBase, "B1", 20, 4, 5)
	fail.Status = "failed"
	a.Record(fail)
	hit := solvedEvent(testBase, "B1", 20, 4, 0)
	hit.CacheHit = true
	a.Record(hit)

	st := a.Stats(10 * time.Minute)
	if st.Jobs != 18 {
		t.Fatalf("jobs = %d, want 18", st.Jobs)
	}
	small, ok := st.Shapes["ops<=32,ctx<=4"]
	if !ok {
		t.Fatalf("missing small shape bucket; have %v", st.Shapes)
	}
	if small.Jobs != 10 || small.Solved != 8 || small.Failures != 1 || small.CacheHits != 1 {
		t.Fatalf("small bucket %+v", small)
	}
	big := st.Shapes["ops<=128,ctx<=16"]
	if big.P50Ms < 390 || big.P50Ms > 410 {
		t.Fatalf("big-shape p50 = %g, want ~400", big.P50Ms)
	}

	if b1, ok := st.Benchmarks["B1"]; !ok || b1.Jobs != 10 {
		t.Fatalf("benchmark B1: ok=%v %+v", ok, b1)
	}

	ms, samples := a.ShapeQuantile("ops<=128,ctx<=16", 0.5, 10*time.Minute)
	if samples != 8 || ms < 390 || ms > 410 {
		t.Fatalf("ShapeQuantile = %g over %d samples, want ~400 over 8", ms, samples)
	}
}

func TestAggregatorSeriesAndHeat(t *testing.T) {
	clock := &fixedClock{t: testBase}
	a := NewAggregator(time.Minute, 60, 0.02, clock.now)
	for i := 0; i < 6; i++ {
		a.Record(solvedEvent(testBase.Add(-time.Duration(i)*time.Minute), "B1", 20, 4, 100))
	}

	series := a.Series(6 * time.Minute)
	if len(series) != 6 {
		t.Fatalf("series length %d, want 6", len(series))
	}
	var total int64
	for i, p := range series {
		if i > 0 && !p.Start.After(series[i-1].Start) {
			t.Fatal("series not in ascending time order")
		}
		total += p.Jobs
	}
	if total != 6 {
		t.Fatalf("series jobs sum %d, want 6", total)
	}

	shapes, cols, vals := a.ShapeHeat(6*time.Minute, 3)
	if len(shapes) != 1 || shapes[0] != "ops<=32,ctx<=4" {
		t.Fatalf("heat shapes %v", shapes)
	}
	if len(cols) > 3 || len(vals) != 1 || len(vals[0]) != len(cols) {
		t.Fatalf("heat dims: %d cols, vals %v", len(cols), vals)
	}
	sum := 0.0
	for _, v := range vals[0] {
		sum += v
	}
	if sum != 6 {
		t.Fatalf("heat jobs sum %g, want 6", sum)
	}
}

func TestTenantTrackerCapAndRollup(t *testing.T) {
	tr := NewTenantTracker(2)
	if got := tr.Label("a"); got != "a" {
		t.Fatalf("first identity = %q, want admitted", got)
	}
	if got := tr.Label("b"); got != "b" {
		t.Fatalf("second identity = %q, want admitted", got)
	}
	// Past the cap every new identity rolls up; admitted ones keep
	// resolving to themselves.
	for _, raw := range []string{"c", "d", "e"} {
		if got := tr.Label(raw); got != TenantOther {
			t.Fatalf("Label(%q) = %q, want %q", raw, got, TenantOther)
		}
	}
	if got := tr.Label("a"); got != "a" {
		t.Fatalf("admitted identity after overflow = %q, want a", got)
	}
	// Empty is the CLI's "no tenant" and passes through untouched; a nil
	// tracker is inert.
	if got := tr.Label(""); got != "" {
		t.Fatalf("Label(\"\") = %q, want empty", got)
	}
	var nilTr *TenantTracker
	if got := nilTr.Label("x"); got != "x" {
		t.Fatalf("nil tracker Label = %q, want passthrough", got)
	}
}

func TestAggregatorTenantBreakdown(t *testing.T) {
	clock := &fixedClock{t: testBase}
	a := NewAggregator(time.Minute, 10, 0.01, clock.now)
	a.tenants = NewTenantTracker(2)

	for i, tenant := range []string{"a", "a", "b", "c", "d"} {
		ev := solvedEvent(testBase.Add(-time.Duration(i)*time.Minute), "B1", 20, 4, 100)
		ev.Tenant = tenant
		a.Record(ev)
	}

	st := a.Stats(10 * time.Minute)
	if len(st.Tenants) != 3 {
		t.Fatalf("tenant buckets = %v, want a, b, other", st.Tenants)
	}
	if st.Tenants["a"].Jobs != 2 || st.Tenants["b"].Jobs != 1 || st.Tenants[TenantOther].Jobs != 2 {
		t.Fatalf("tenant jobs = %v, want a:2 b:1 other:2", st.Tenants)
	}

	// The single-tenant view matches the breakdown; an over-cap identity
	// reports empty under its own name (its traffic lives in "other").
	tw := a.TenantStats("a", 10*time.Minute)
	if tw == nil || tw.Summary.Jobs != 2 || tw.Summary.Solved != 2 {
		t.Fatalf("TenantStats(a) = %+v, want 2 jobs", tw)
	}
	if sum := a.TenantStats("c", 10*time.Minute).Summary; sum.Jobs != 0 {
		t.Fatalf("rolled-up tenant reports %d jobs under its own name, want 0", sum.Jobs)
	}
}
