package place

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/dfg"
	"agingfp/internal/hls"
	"agingfp/internal/timing"
)

func placed(t *testing.T, g *dfg.Graph, w, h int) (*arch.Design, arch.Mapping) {
	t.Helper()
	d, err := hls.BuildDesign("t", g, arch.Fabric{W: w, H: h}, hls.DefaultConfig())
	if err != nil {
		t.Fatalf("BuildDesign: %v", err)
	}
	m, err := Place(d, DefaultConfig())
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	return d, m
}

func TestPlaceLegalAndMeetsTiming(t *testing.T) {
	for name, mk := range map[string]*dfg.Graph{
		"fir16": dfg.FIR(16),
		"dct8":  dfg.DCT8(),
		"iir4":  dfg.IIR(4),
	} {
		d, m := placed(t, mk, 8, 8)
		if err := arch.ValidateMapping(d, m); err != nil {
			t.Errorf("%s: illegal placement: %v", name, err)
			continue
		}
		res := timing.Analyze(d, m)
		if res.CPD > d.ClockPeriodNs+1e-9 {
			t.Errorf("%s: CPD %.3f exceeds period %.3f", name, res.CPD, d.ClockPeriodNs)
		}
	}
}

func TestPlacePacksCorner(t *testing.T) {
	// The baseline is bounding-box minimizing: a 16-op-wide design on a
	// big fabric must stay within a small corner region.
	d, m := placed(t, dfg.FIR(16), 12, 12)
	w, h := UsedRegion(d, m)
	if w > 6 || h > 6 {
		t.Fatalf("used region %dx%d, expected tight packing for 16-wide contexts", w, h)
	}
}

func TestPlaceConcentratesStress(t *testing.T) {
	// The aging-unaware floorplan should concentrate stress: max stress
	// well above the fabric mean (the paper's premise, Fig. 2a).
	d, m := placed(t, dfg.FIR(16), 8, 8)
	s := arch.ComputeStress(d, m)
	if s.Max() < 1.5*s.Mean() {
		t.Fatalf("baseline too level: max %.3f vs mean %.3f", s.Max(), s.Mean())
	}
}

func TestPlaceDeterministicPerSeed(t *testing.T) {
	d1, m1 := placed(t, dfg.FIR(16), 8, 8)
	_, m2 := placed(t, dfg.FIR(16), 8, 8)
	_ = d1
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("placement not deterministic at op %d: %v vs %v", i, m1[i], m2[i])
		}
	}
}

func TestPlaceFullFabric(t *testing.T) {
	// A context exactly filling the fabric must still place legally.
	g := &dfg.Graph{}
	for i := 0; i < 16; i++ {
		g.AddOp(dfg.ALU, "x")
	}
	d, err := hls.BuildDesign("full", g, arch.Fabric{W: 4, H: 4}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Place(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.ValidateMapping(d, m); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceRandomDesigns(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := dfg.MustNewLayered(rng, dfg.DefaultLayeredSpec(40+rng.Intn(40), 4+rng.Intn(4)))
		d, err := hls.BuildDesign("r", g, arch.Fabric{W: 8, H: 8}, hls.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, err := Place(d, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := arch.ValidateMapping(d, m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := timing.Analyze(d, m)
		if res.CPD > d.ClockPeriodNs+1e-9 {
			t.Fatalf("seed %d: CPD %.3f over period", seed, res.CPD)
		}
	}
}

func TestUsedRegion(t *testing.T) {
	g := &dfg.Graph{}
	g.AddOp(dfg.ALU, "a")
	g.AddOp(dfg.ALU, "b")
	d := arch.NewDesign("x", arch.Fabric{W: 8, H: 8}, 1, g, []int{0, 0})
	m := arch.Mapping{{X: 2, Y: 1}, {X: 5, Y: 3}}
	w, h := UsedRegion(d, m)
	if w != 6 || h != 4 {
		t.Fatalf("region %dx%d, want 6x4", w, h)
	}
}

// TestAnnealRepairStopsOnCancel: the annealing repair polls its context
// and leaves the mapping untouched when it stops.
func TestAnnealRepairStopsOnCancel(t *testing.T) {
	d, err := hls.BuildDesign("fir", dfg.FIR(16), arch.Fabric{W: 6, H: 6}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Scatter each context's ops over the fabric so wires blow the clock.
	m := make(arch.Mapping, d.NumOps())
	for c := 0; c < d.NumContexts; c++ {
		for k, op := range d.ContextOps(c) {
			m[op] = d.Fabric.CoordOf(k * 13 % d.Fabric.NumPEs())
		}
	}
	if timing.Analyze(d, m).CPD <= d.ClockPeriodNs {
		t.Fatal("scattered mapping meets the clock; nothing to repair")
	}
	before := m.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, err := annealRepairTiming(ctx, d, m, rand.New(rand.NewSource(1)), 1_000_000)
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("annealRepairTiming on a canceled context: ok=%v err=%v", ok, err)
	}
	for op := range m {
		if m[op] != before[op] {
			t.Fatalf("op %d moved from %v to %v", op, before[op], m[op])
		}
	}
}
