package bench

import (
	"context"
	"sort"
	"testing"
)

// Solver effort of the Table-I subset B1, B4, B7, B10 and B13: the
// per-benchmark medians of LP solves and simplex iterations, Freeze and
// Rotate arms summed, as the last recorded perf baseline measured them
// (both medians are B13's).
const (
	refMedianLPSolves     = 142
	refMedianSimplexIters = 10505
)

// TestSuiteEffortWithinReference keeps the effort half of the retired
// perf gate. The counts are deterministic for a fixed seed, so a median
// past 2x its reference is an algorithmic regression (a lost warm start
// lands straight in the simplex iterations), not machine noise. The
// factor is generous so intended algorithm changes fail with a message,
// and the constants can be re-recorded with them.
func TestSuiteEffortWithinReference(t *testing.T) {
	const factor = 2.0
	var lps, iters []float64
	for _, name := range []string{"B1", "B4", "B7", "B10", "B13"} {
		spec, ok := SpecByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		r, err := Run(context.Background(), spec, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fs, rs := r.FreezeStats, r.RotateStats
		lps = append(lps, float64(fs.LPSolves+rs.LPSolves))
		iters = append(iters, float64(fs.SimplexIters+rs.SimplexIters))
	}
	for _, c := range []struct {
		name     string
		got, ref float64
	}{
		{"LP solves", median(lps), refMedianLPSolves},
		{"simplex iterations", median(iters), refMedianSimplexIters},
	} {
		t.Logf("median %s: %.0f (reference %.0f)", c.name, c.got, c.ref)
		if c.got > factor*c.ref {
			t.Errorf("median %s %.0f exceeds %.0fx the reference %.0f", c.name, c.got, factor, c.ref)
		}
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
