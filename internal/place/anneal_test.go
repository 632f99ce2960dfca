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

func TestAnnealLegalAndMeetsTiming(t *testing.T) {
	d, err := hls.BuildDesign("fir", dfg.FIR(16), arch.Fabric{W: 6, H: 6}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAnnealConfig()
	cfg.Moves = 3000
	m, err := Anneal(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.ValidateMapping(d, m); err != nil {
		t.Fatal(err)
	}
	res := timing.Analyze(d, m)
	if res.CPD > d.ClockPeriodNs+1e-9 {
		t.Fatalf("CPD %.3f over clock", res.CPD)
	}
}

func TestAnnealImprovesWirelength(t *testing.T) {
	d, err := hls.BuildDesign("dct", dfg.DCT8(), arch.Fabric{W: 6, H: 6}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seed, err := Place(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wl := func(m arch.Mapping) int {
		t := 0
		for _, e := range d.Graph.Edges {
			t += m[e.From].Dist(m[e.To])
		}
		return t
	}
	cfg := DefaultAnnealConfig()
	cfg.Moves = 6000
	m, err := Anneal(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wl(m) > wl(seed) {
		t.Fatalf("annealing worsened wirelength: %d -> %d", wl(seed), wl(m))
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	d, err := hls.BuildDesign("fir", dfg.FIR(8), arch.Fabric{W: 5, H: 5}, hls.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultAnnealConfig()
	cfg.Moves = 2000
	m1, err := Anneal(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Anneal(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("nondeterministic at op %d", i)
		}
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
