package telemetry

import (
	"math"
	"sort"
	"testing"
)

// lcg is a deterministic uniform(0,1) stream so the accuracy test is
// reproducible without math/rand.
func lcg(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
}

// exactQuantile matches the sketch's rank convention: the 0-based
// rank-⌊q·(n-1)⌋ order statistic.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(q * float64(len(sorted)-1))
	return sorted[rank]
}

func TestSketchAccuracy(t *testing.T) {
	// Values spanning 1ms to ~200s — the range real solve times cover —
	// drawn log-uniformly so every decade gets traffic.
	next := lcg(42)
	const n = 5000
	s := NewSketch(DefaultAccuracy)
	values := make([]float64, n)
	for i := range values {
		v := math.Exp(next() * math.Log(200_000))
		values[i] = v
		s.Add(v)
	}
	sort.Float64s(values)

	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := exactQuantile(values, q)
		got := s.Quantile(q)
		if relErr := math.Abs(got-exact) / exact; relErr > s.Alpha()*1.01 {
			t.Errorf("q=%g: got %g, exact %g, relative error %.4f > alpha %.4f",
				q, got, exact, relErr, s.Alpha())
		}
	}
	if s.Count() != n {
		t.Fatalf("count = %d, want %d", s.Count(), n)
	}
	if s.Max() != values[n-1] {
		t.Fatalf("max = %g, want exact %g", s.Max(), values[n-1])
	}
	wantSum := 0.0
	for _, v := range values {
		wantSum += v
	}
	if math.Abs(s.Mean()-wantSum/n) > 1e-6*wantSum/n {
		t.Fatalf("mean = %g, want %g", s.Mean(), wantSum/n)
	}
}

func TestSketchMergeMatchesSingleStream(t *testing.T) {
	next := lcg(7)
	whole, a, b := NewSketch(0.02), NewSketch(0.02), NewSketch(0.02)
	for i := 0; i < 2000; i++ {
		v := 1 + next()*1000
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), whole.Count())
	}
	// Sums differ only by float addition order.
	if math.Abs(a.Sum()-whole.Sum()) > 1e-6*whole.Sum() {
		t.Fatalf("merged sum %g, want %g", a.Sum(), whole.Sum())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q=%g: merged %g != single-stream %g (same buckets must agree exactly)", q, got, want)
		}
	}
	// Incommensurable accuracies must refuse to merge rather than mix
	// bucket bases.
	other := NewSketch(0.1)
	other.Add(5)
	before := a.Count()
	a.Merge(other)
	if a.Count() != before {
		t.Fatal("merge across different gamma must be a no-op")
	}
}

func TestSketchZerosAndNil(t *testing.T) {
	s := NewSketch(0.02)
	s.Add(0)
	s.Add(-3)
	s.Add(10)
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3 (zeros counted)", s.Count())
	}
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("low quantile with zero bucket = %g, want 0", got)
	}
	if got := s.Quantile(1); math.Abs(got-10) > 10*s.Alpha() {
		t.Fatalf("max quantile = %g, want 10 within alpha", got)
	}
	s.Add(math.NaN())
	if s.Count() != 3 {
		t.Fatal("NaN must be dropped")
	}

	var nilSketch *Sketch
	nilSketch.Add(1) // must not panic
	nilSketch.Merge(s)
	if nilSketch.Quantile(0.5) != 0 || nilSketch.Count() != 0 || nilSketch.Mean() != 0 {
		t.Fatal("nil sketch accessors must return zeros")
	}
}

// A one-value sketch answers that value exactly: the exact min and max
// clamp its bucket's midpoint from both sides.
func TestSketchSingleValueExact(t *testing.T) {
	for _, v := range []float64{1, 3, 7.7, 1000, 123456} {
		s := NewSketch(DefaultAccuracy)
		s.Add(v)
		if q0, q1 := s.Quantile(0), s.Quantile(1); q0 != v || q1 != v {
			t.Fatalf("one value %g: quantiles %g, %g", v, q0, q1)
		}
	}
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch(0.02)
	if s.Quantile(0.5) != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
}
