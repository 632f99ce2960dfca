package slo

import (
	"bytes"
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"

	"agingfp/internal/obs"
	"agingfp/internal/telemetry"
)

// testEngine builds an engine on a manual clock.
func testEngine(t *testing.T, objs []Objective, now *time.Time, cfg Config) *Engine {
	t.Helper()
	cfg.Now = func() time.Time { return *now }
	return New(objs, cfg)
}

func doneEvent(at time.Time) *telemetry.SolveEvent {
	return &telemetry.SolveEvent{Time: at, Source: telemetry.SourceServe, Status: "done", ElapsedMs: 100}
}

func failedEvent(at time.Time) *telemetry.SolveEvent {
	return &telemetry.SolveEvent{Time: at, Source: telemetry.SourceServe, Status: "failed", ElapsedMs: 100}
}

// Golden check of the budget and burn arithmetic: 100 eligible jobs,
// 5 failed, against a 99% availability objective. The error rate is
// 0.05 = 5× the 0.01 budget rate, so every window's burn rate is
// exactly 5; the budget allowed 1 failure and 5 were spent, so the
// remaining fraction is 1 - 5/1 = -4 (overspent, reported honestly).
func TestBurnRateAndBudgetGolden(t *testing.T) {
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	e := testEngine(t, []Objective{Availability(0.99)}, &now, Config{})

	for i := 0; i < 95; i++ {
		e.Record(doneEvent(now))
	}
	for i := 0; i < 5; i++ {
		e.Record(failedEvent(now))
	}

	st := e.Status(time.Hour)
	if len(st.Objectives) != 1 {
		t.Fatalf("objectives = %d, want 1", len(st.Objectives))
	}
	o := st.Objectives[0]
	if o.Eligible != 100 || o.Good != 95 {
		t.Fatalf("eligible/good = %d/%d, want 100/95", o.Eligible, o.Good)
	}
	if math.Abs(o.SLI-0.95) > 1e-9 {
		t.Fatalf("SLI = %v, want 0.95", o.SLI)
	}
	if math.Abs(o.ErrorBudgetRemaining-(-4)) > 1e-9 {
		t.Fatalf("budget remaining = %v, want -4", o.ErrorBudgetRemaining)
	}
	for _, w := range []string{"5m0s", "30m0s", "1h0m0s", "6h0m0s"} {
		if math.Abs(o.BurnRates[w]-5) > 1e-9 {
			t.Fatalf("burn[%s] = %v, want 5", w, o.BurnRates[w])
		}
	}
	// Availability at 0.99: 0.5/0.01 = 50, so the canonical thresholds
	// survive the clamp.
	if o.FastBurnThreshold != 14.4 || o.SlowBurnThreshold != 6 {
		t.Fatalf("thresholds = %v/%v, want 14.4/6", o.FastBurnThreshold, o.SlowBurnThreshold)
	}
}

// A loose objective cannot burn faster than 1/(1-target); the derived
// thresholds must clamp below that ceiling or the alert could never
// fire.
func TestThresholdClampForLooseTargets(t *testing.T) {
	o := Objective{Name: "x", Kind: KindAvailability, Target: 0.90}
	if got := o.fastBurn(); math.Abs(got-5) > 1e-9 { // 0.5/0.1
		t.Fatalf("fastBurn = %v, want 5", got)
	}
	if got := o.slowBurn(); math.Abs(got-2.5) > 1e-9 { // 0.25/0.1
		t.Fatalf("slowBurn = %v, want 2.5", got)
	}
	tight := Objective{Name: "y", Kind: KindAvailability, Target: 0.99}
	if tight.fastBurn() != 14.4 || tight.slowBurn() != 6 {
		t.Fatalf("tight thresholds = %v/%v, want 14.4/6", tight.fastBurn(), tight.slowBurn())
	}
}

// Truth table, firing half: a failure burst with no healthy history
// makes every window equally hot, so BOTH windows of both pairs exceed
// their thresholds and both alerts fire — and the slog alert is
// edge-triggered (one warn per pair, not one per event) and names the
// SLO.
func TestBurnAlertBothWindowsHotFires(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	e := testEngine(t, []Objective{Availability(0.99)}, &now, Config{Logger: logger})

	for i := 0; i < 20; i++ {
		e.Record(failedEvent(now))
	}

	st := e.Status(0).Objectives[0]
	if !st.FastAlert || !st.SlowAlert || !st.Alerting {
		t.Fatalf("alerts fast=%v slow=%v, want both true", st.FastAlert, st.SlowAlert)
	}
	logs := buf.String()
	if n := strings.Count(logs, "SLO burn-rate alert"); n != 2 {
		t.Fatalf("warn lines = %d, want exactly 2 (one per pair, edge-triggered):\n%s", n, logs)
	}
	if !strings.Contains(logs, "slo=availability") {
		t.Fatalf("alert does not name the SLO:\n%s", logs)
	}
}

// Truth table, suppressed half: a long healthy history dilutes the
// long window, so only the short window goes hot and neither pair
// fires — the multi-window guard against paging on blips.
func TestBurnAlertOneWindowHotDoesNotFire(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	e := testEngine(t, []Objective{Availability(0.99)}, &now, Config{Logger: logger})

	// 55 minutes of healthy traffic...
	past := now.Add(-55 * time.Minute)
	for i := 0; i < 1000; i++ {
		e.Record(doneEvent(past))
	}
	// ...then a 20-job failure burst right now.
	for i := 0; i < 20; i++ {
		e.Record(failedEvent(now))
	}

	st := e.Status(0).Objectives[0]
	// 5m window: 20/20 failed → burn 100, hot.
	if st.BurnRates["5m0s"] < 14.4 {
		t.Fatalf("short-window burn = %v, want >= 14.4", st.BurnRates["5m0s"])
	}
	// 1h window: 20/1020 failed → burn ≈ 1.96, cold.
	if st.BurnRates["1h0m0s"] >= 14.4 {
		t.Fatalf("long-window burn = %v, want < 14.4", st.BurnRates["1h0m0s"])
	}
	if st.FastAlert || st.SlowAlert {
		t.Fatalf("alerts fast=%v slow=%v, want both false", st.FastAlert, st.SlowAlert)
	}
	if strings.Contains(buf.String(), "SLO burn-rate alert") {
		t.Fatalf("unexpected alert logged:\n%s", buf.String())
	}
}

// Recovery: after the burst ages out of both short windows, the alert
// clears and the clear is logged once.
func TestBurnAlertClearsAndLogsRecovery(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	e := testEngine(t, []Objective{Availability(0.99)}, &now, Config{Logger: logger})

	for i := 0; i < 20; i++ {
		e.Record(failedEvent(now))
	}
	if !e.Status(0).Objectives[0].Alerting {
		t.Fatal("burst did not trip the alert")
	}
	buf.Reset()

	// 40 minutes later a healthy job arrives: the failures are out of
	// the 5m and 30m windows, so both pairs drop cold.
	now = now.Add(40 * time.Minute)
	e.Record(doneEvent(now))

	st := e.Status(0).Objectives[0]
	if st.FastAlert || st.SlowAlert {
		t.Fatalf("alerts fast=%v slow=%v after recovery, want false", st.FastAlert, st.SlowAlert)
	}
	logs := buf.String()
	if n := strings.Count(logs, "SLO burn-rate alert cleared"); n != 2 {
		t.Fatalf("clear lines = %d, want 2 (one per pair):\n%s", n, logs)
	}
}

// Latency objectives are scoped to one shape bucket and judge only
// solved jobs against the per-job bound.
func TestLatencyObjectiveClassification(t *testing.T) {
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	bucket := (&telemetry.SolveEvent{Ops: 24, Contexts: 4}).ShapeBucket()
	obj := Objective{
		Name: "latency-small", Kind: KindLatency, Target: 0.90,
		Shape: bucket, LatencyTargetMs: 500,
	}
	e := testEngine(t, []Objective{obj}, &now, Config{})

	mk := func(ops int, elapsed float64, status string) *telemetry.SolveEvent {
		return &telemetry.SolveEvent{Time: now, Status: status, Ops: ops, Contexts: 4, ElapsedMs: elapsed}
	}
	e.Record(mk(24, 100, "done"))   // in bucket, fast → good
	e.Record(mk(24, 900, "done"))   // in bucket, slow → bad
	e.Record(mk(500, 9000, "done")) // other bucket → ineligible
	e.Record(mk(24, 100, "failed")) // not solved → ineligible
	ev := mk(24, 100, "done")
	ev.CacheHit = true
	e.Record(ev) // cache hit → ineligible (no solver ran)

	o := e.Status(time.Hour).Objectives[0]
	if o.Eligible != 2 || o.Good != 1 {
		t.Fatalf("eligible/good = %d/%d, want 2/1", o.Eligible, o.Good)
	}
	if math.Abs(o.SLI-0.5) > 1e-9 {
		t.Fatalf("SLI = %v, want 0.5", o.SLI)
	}
}

// An idle service meets its objectives: full budget, zero burn, SLI 1.
func TestIdleEngineReportsFullBudget(t *testing.T) {
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	reg := obs.NewRegistry()
	e := testEngine(t, []Objective{Availability(0.999)}, &now, Config{Registry: reg})

	o := e.Status(0).Objectives[0]
	if o.SLI != 1 || o.ErrorBudgetRemaining != 1 || o.Alerting {
		t.Fatalf("idle status = %+v, want SLI 1, budget 1, no alert", o)
	}
	// New publishes the gauges at boot so scrapes see the series before
	// the first event.
	g := reg.Gauge(obs.Labeled("agingfp_slo_error_budget_remaining", "slo", "availability"))
	if g.Value() != 1 {
		t.Fatalf("boot budget gauge = %v, want 1", g.Value())
	}
}

// Gauges track the ring: after the golden burst the budget gauge goes
// negative and every burn-rate window gauge reads 5.
func TestGaugesFollowBudget(t *testing.T) {
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	reg := obs.NewRegistry()
	e := testEngine(t, []Objective{Availability(0.99)}, &now, Config{Registry: reg})
	for i := 0; i < 95; i++ {
		e.Record(doneEvent(now))
	}
	for i := 0; i < 5; i++ {
		e.Record(failedEvent(now))
	}
	g := reg.Gauge(obs.Labeled("agingfp_slo_error_budget_remaining", "slo", "availability"))
	if math.Abs(g.Value()-(-4)) > 1e-9 {
		t.Fatalf("budget gauge = %v, want -4", g.Value())
	}
	for _, w := range []string{"5m0s", "1h0m0s", "30m0s", "6h0m0s"} {
		bg := reg.Gauge(obs.Labeled(obs.Labeled("agingfp_slo_burn_rate", "slo", "availability"), "window", w))
		if math.Abs(bg.Value()-5) > 1e-9 {
			t.Fatalf("burn gauge[%s] = %v, want 5", w, bg.Value())
		}
	}
}

// DefaultObjectives over ReferenceWorstMs yields the daemon's four
// latency objectives: one per bucket, P90 under the worst time × 4.
// Without worst times it yields availability only.
func TestDefaultObjectivesReference(t *testing.T) {
	// The keys are the buckets B7, B1, B10 and B4 solve events land in.
	for _, ev := range []telemetry.SolveEvent{{Ops: 88, Contexts: 16}, {Ops: 24, Contexts: 4}, {Ops: 35, Contexts: 4}, {Ops: 44, Contexts: 8}} {
		if _, ok := ReferenceWorstMs[ev.ShapeBucket()]; !ok {
			t.Fatalf("no reference time for ops=%d ctx=%d", ev.Ops, ev.Contexts)
		}
	}
	objs := DefaultObjectives(0.99, ReferenceWorstMs, 4)
	want := []struct {
		shape    string
		targetMs float64
	}{
		{"ops<=128,ctx<=16", 2460},
		{"ops<=32,ctx<=4", 72},
		{"ops<=64,ctx<=4", 176},
		{"ops<=64,ctx<=8", 1392},
	}
	if len(objs) != 1+len(want) {
		t.Fatalf("objectives = %d, want availability + %d latency", len(objs), len(want))
	}
	if objs[0].Kind != KindAvailability || objs[0].Target != 0.99 {
		t.Fatalf("first objective = %+v, want availability at 0.99", objs[0])
	}
	for i, w := range want {
		o := objs[1+i]
		if o.Name != "latency-"+w.shape || o.Shape != w.shape || o.Kind != KindLatency ||
			o.Target != 0.90 || o.LatencyTargetMs != w.targetMs {
			t.Fatalf("objective %d = %+v, want latency-%s P90 under %vms", 1+i, o, w.shape, w.targetMs)
		}
	}
	if objs := DefaultObjectives(0.99, nil, 4); len(objs) != 1 || objs[0].Kind != KindAvailability {
		t.Fatalf("nil worst times: objectives = %+v, want availability only", objs)
	}
}

// Nil engines and nil events are inert — serve wires the engine
// unconditionally.
func TestNilSafety(t *testing.T) {
	var e *Engine
	e.Record(doneEvent(time.Now()))
	if e.Status(0) != nil {
		t.Fatal("nil engine Status must be nil")
	}
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	live := testEngine(t, []Objective{Availability(0.99)}, &now, Config{})
	live.Record(nil) // must not panic
}

// PanelHTML escapes and renders without an engine and with alerts.
func TestPanelHTML(t *testing.T) {
	if got := PanelHTML(nil); !strings.Contains(got, "No SLO engine") {
		t.Fatalf("nil status panel = %q", got)
	}
	now := time.Date(2026, 1, 2, 12, 0, 30, 0, time.UTC)
	e := testEngine(t, []Objective{Availability(0.99)}, &now, Config{})
	for i := 0; i < 5; i++ {
		e.Record(failedEvent(now))
	}
	html := PanelHTML(e.Status(0))
	for _, want := range []string{"Service-level objectives", "availability", "fast+slow", "Error budget remaining"} {
		if !strings.Contains(html, want) {
			t.Fatalf("panel missing %q:\n%s", want, html)
		}
	}
}
