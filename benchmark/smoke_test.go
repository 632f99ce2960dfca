package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// TestServeMixSmoke runs a traced serve-mix against in-process servers
// with two cold designs per pass: untraced passes, one traced pass, and
// an open-loop probe of 20 requests. It requires every answer to pass
// the checker and every per-layer metric to be measured.
func TestServeMixSmoke(t *testing.T) {
	defer func(n int) { servePassColds = n }(servePassColds)
	servePassColds = 2
	out, err := runServeMix(context.Background(), 7, 20/mixRate, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", out.failed, out.attempted, out.bad)
	}
	pass := 8 * servePassColds
	if n := out.attempted - 20; n < 2*pass || n%pass != 0 {
		t.Errorf("attempted %d requests, want passes of %d (at least one untraced, one traced) and 20 open-loop", out.attempted, pass)
	}
	if _, err := buildResult(out, perLayer); err != nil {
		t.Fatal(err)
	}
	if f := out.metrics["serve.cache_hit_frac"]; f != 1 {
		t.Errorf("cache hit fraction %g, want 1", f)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the metric names and units this
// program reports identical to the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []specMetric            `json:"end_to_end"`
		PerLayer  []specMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i])
		}
	}
}
