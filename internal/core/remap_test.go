package core

import (
	"context"
	"math/rand"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/dfg"
	"agingfp/internal/hls"
	"agingfp/internal/nbti"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// skipUnderRace skips multi-second full-flow tests when the race
// detector is on: they contain no goroutines of their own and the
// ~15x scheduler slowdown would push the package past any sane CI
// timeout. The -race run keeps the tests that do fork goroutines.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("skipping heavyweight sequential flow test under -race")
	}
}

// buildSmall builds a placed small design for flow tests.
func buildSmall(t *testing.T, g *dfg.Graph, w, h int) (*arch.Design, arch.Mapping) {
	t.Helper()
	d, err := hls.BuildDesign("test", g, arch.Fabric{W: w, H: h}, hls.DefaultConfig())
	if err != nil {
		t.Fatalf("BuildDesign: %v", err)
	}
	m, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	return d, m
}

func checkRemapInvariants(t *testing.T, d *arch.Design, m0 arch.Mapping, r *Result) {
	t.Helper()
	if err := arch.ValidateMapping(d, r.Mapping); err != nil {
		t.Fatalf("remapped floorplan illegal: %v", err)
	}
	if r.NewCPD > r.OrigCPD+1e-9 {
		t.Fatalf("CPD regressed: %.4f -> %.4f", r.OrigCPD, r.NewCPD)
	}
	// Re-verify CPD independently.
	res := timing.Analyze(d, r.Mapping)
	if res.CPD > r.OrigCPD+1e-9 {
		t.Fatalf("independent STA shows CPD regression: %.4f -> %.4f", r.OrigCPD, res.CPD)
	}
	if r.NewMaxStress > r.OrigMaxStress+1e-9 {
		t.Fatalf("max stress regressed: %.4f -> %.4f", r.OrigMaxStress, r.NewMaxStress)
	}
	// Stress conservation: total stress is invariant under re-binding.
	s0 := arch.ComputeStress(d, m0)
	s1 := arch.ComputeStress(d, r.Mapping)
	if diff := s0.Total() - s1.Total(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("total stress not conserved: %.6f vs %.6f", s0.Total(), s1.Total())
	}
}

func TestRemapFIRFreeze(t *testing.T) {
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)
	opts := DefaultOptions()
	opts.Mode = Freeze
	r, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	checkRemapInvariants(t, d, m0, r)
	if !r.Improved {
		t.Errorf("expected stress improvement on a sparse fabric (max %.3f, mean lower bound %.3f)",
			r.OrigMaxStress, r.STLowerBound)
	}
}

func TestRemapFIRRotate(t *testing.T) {
	skipUnderRace(t)
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)
	opts := DefaultOptions()
	r, err := Remap(context.Background(), d, m0, opts)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	checkRemapInvariants(t, d, m0, r)
	if !r.Improved {
		t.Errorf("expected improvement")
	}
}

func TestRemapDCT(t *testing.T) {
	d, m0 := buildSmall(t, dfg.DCT8(), 5, 5)
	r, err := Remap(context.Background(), d, m0, DefaultOptions())
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	checkRemapInvariants(t, d, m0, r)
}

// TestRemapChunkedMatchesInvariants: an instance whose contexts Step
// 2.3 solves in several chained batches keeps every remap invariant.
func TestRemapChunkedMatchesInvariants(t *testing.T) {
	d, m0 := buildSmall(t, dfg.IIR(6), 6, 6)
	if n := len(contextBatches(d)); n < 2 {
		t.Fatalf("IIR(6) on 6x6 solves in %d batch, want at least 2", n)
	}
	r, err := Remap(context.Background(), d, m0, DefaultOptions())
	if err != nil {
		t.Fatalf("Remap chunked: %v", err)
	}
	checkRemapInvariants(t, d, m0, r)
}

func TestRemapMTTFRatioAtLeastOne(t *testing.T) {
	skipUnderRace(t)
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)
	r, err := Remap(context.Background(), d, m0, DefaultOptions())
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	ratio, err := MTTFIncrease(d, m0, r.Mapping, nbti.DefaultModel(), thermal.DefaultConfig())
	if err != nil {
		t.Fatalf("MTTFIncrease: %v", err)
	}
	if ratio < 1.0-1e-9 {
		t.Fatalf("MTTF ratio %.3f < 1", ratio)
	}
	if r.Improved && ratio <= 1.0 {
		t.Errorf("stress improved but MTTF ratio %.3f not > 1", ratio)
	}
}

func TestGreedyLevelLegalAndLevel(t *testing.T) {
	d, m0 := buildSmall(t, dfg.FIR(16), 6, 6)
	m := GreedyLevel(d, nil)
	if err := arch.ValidateMapping(d, m); err != nil {
		t.Fatalf("greedy mapping illegal: %v", err)
	}
	g := arch.ComputeStress(d, m)
	o := arch.ComputeStress(d, m0)
	if g.Max() > o.Max()+1e-9 {
		t.Fatalf("greedy leveling made stress worse: %.3f vs %.3f", g.Max(), o.Max())
	}
}

func TestGreedyRespectsFrozen(t *testing.T) {
	d, _ := buildSmall(t, dfg.FIR(8), 4, 4)
	frozen := map[int]arch.Coord{0: {X: 3, Y: 3}}
	m := GreedyLevel(d, frozen)
	if m[0] != (arch.Coord{X: 3, Y: 3}) {
		t.Fatalf("frozen op moved to %v", m[0])
	}
	if err := arch.ValidateMapping(d, m); err != nil {
		t.Fatalf("mapping illegal: %v", err)
	}
}

func TestOrientIsometry(t *testing.T) {
	f := arch.Fabric{W: 8, H: 8}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		a := arch.Coord{X: rng.Intn(8), Y: rng.Intn(8)}
		b := arch.Coord{X: rng.Intn(8), Y: rng.Intn(8)}
		for o := 0; o < numOrientations; o++ {
			oa, ob := orient(a, o, f), orient(b, o, f)
			if !f.Contains(oa) || !f.Contains(ob) {
				t.Fatalf("orient %d moved %v/%v off fabric: %v/%v", o, a, b, oa, ob)
			}
			if oa.Dist(ob) != a.Dist(b) {
				t.Fatalf("orient %d not isometric: %v-%v dist %d -> %d",
					o, a, b, a.Dist(b), oa.Dist(ob))
			}
		}
	}
}

func TestOrientBijection(t *testing.T) {
	f := arch.Fabric{W: 6, H: 6}
	for o := 0; o < numOrientations; o++ {
		seen := make(map[arch.Coord]bool)
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				c := orient(arch.Coord{X: x, Y: y}, o, f)
				if seen[c] {
					t.Fatalf("orientation %d maps two cells to %v", o, c)
				}
				seen[c] = true
			}
		}
	}
}

func TestOrientationPoolRules(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	orients := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// C <= 8: all distinct.
	for _, c := range []int{2, 4, 8} {
		pool := orientationPool(orients, c, rng)
		if len(pool) != c {
			t.Fatalf("pool length %d != %d", len(pool), c)
		}
		seen := map[int]bool{}
		for _, o := range pool {
			if seen[o] {
				t.Fatalf("C=%d: orientation %d repeated", c, o)
			}
			seen[o] = true
		}
	}
	// C > 8: counts between C/8 and C/8+1.
	for _, c := range []int{9, 16, 27} {
		pool := orientationPool(orients, c, rng)
		counts := map[int]int{}
		for _, o := range pool {
			counts[o]++
		}
		base := c / 8
		for o, n := range counts {
			if n < base || n > base+1 {
				t.Fatalf("C=%d: orientation %d appears %d times, want %d or %d", c, o, n, base, base+1)
			}
		}
	}
}

func TestRotateFreezeModeKeepsPositions(t *testing.T) {
	d, m0 := buildSmall(t, dfg.FIR(8), 4, 4)
	res := timing.Analyze(d, m0)
	crit := timing.CriticalOps(d, m0, res, 1e-6)
	opts := DefaultOptions()
	opts.Mode = Freeze
	rng := rand.New(rand.NewSource(1))
	pos := rotateFrozen(context.Background(), d, m0, crit, opts, rng, newFold(opts).run(&Stats{}))
	for op, pe := range pos {
		if pe != m0[op] {
			t.Fatalf("freeze mode moved op %d: %v -> %v", op, m0[op], pe)
		}
	}
}
