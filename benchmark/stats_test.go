package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(data, n=4).
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3, 7, 2}, 1.75, 7.5},
		{[]float64{3, 3}, 3, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", s)
	}
}

func TestPercentileAndGeomean(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if p := percentile(v, 50); !near(p, 2.5) {
		t.Errorf("median = %g, want 2.5", p)
	}
	if p := percentile(v, 100); p != 4 {
		t.Errorf("p100 = %g, want 4", p)
	}
	if p := percentile(v, 90); !near(p, 3.7) {
		t.Errorf("p90 = %g, want 3.7", p)
	}
	if g := geomean([]float64{1, 4}); !near(g, 2) {
		t.Errorf("geomean = %g, want 2", g)
	}
	if g := geomean([]float64{2, 8, 0}); !near(g, 4) {
		t.Errorf("geomean ignoring non-positive = %g, want 4", g)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{50: 0, 99: 0, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestVerdictPairRule(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(parent))
	for i, p := range parent {
		faster[i] = p - 10
	}
	if got := pairWins(parent, faster, false); got != 10 {
		t.Fatalf("pairWins = %d, want 10", got)
	}
	if v := verdict(parent, faster, false, 0.1); v != "gain" {
		t.Errorf("uniformly faster change: %s, want gain", v)
	}
	// Eight wins of ten is below the nine-tenths rule.
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = 120, 120
	if v := verdict(parent, mixed, false, 0.1); v != "no change" {
		t.Errorf("8/10 wins: %s, want no change", v)
	}
	// Wins every pair but by less than the parent's quartile distance.
	slight := make([]float64, len(parent))
	for i, p := range parent {
		slight[i] = p - 0.5
	}
	if v := verdict(parent, slight, false, 0.1); v != "no change" {
		t.Errorf("gain inside the parent's spread: %s, want no change", v)
	}
	slower := make([]float64, len(parent))
	for i, p := range parent {
		slower[i] = p * 1.2
	}
	if v := verdict(parent, slower, false, 0.1); v != "regression" {
		t.Errorf("20%% slower with a 10%% bound: %s, want regression", v)
	}
	// Higher-is-better metrics invert the direction.
	if v := verdict(parent, slower, true, 0.1); v != "gain" {
		t.Errorf("20%% higher quality: %s, want gain", v)
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	if v := verdict(noisy, noisy, false, 0.1); v != "unresolved" {
		t.Errorf("spread beyond the bound: %s, want unresolved", v)
	}
}
