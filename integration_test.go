package agingfp_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/core"
	"agingfp/internal/frontend"
	"agingfp/internal/hls"
	"agingfp/internal/nbti"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
	"agingfp/internal/viz"
)

// TestFullPipeline drives the complete tool chain the way a user would:
// behavioral source -> DFG -> schedule -> baseline placement -> aging-
// aware re-mapping -> reliability -> serialization -> SVG.
func TestFullPipeline(t *testing.T) {
	src := `
		// 8-tap dot product
		p0 = x0 * c0; p1 = x1 * c1; p2 = x2 * c2; p3 = x3 * c3;
		p4 = x4 * c4; p5 = x5 * c5; p6 = x6 * c6; p7 = x7 * c7;
		s0 = p0 + p1; s1 = p2 + p3; s2 = p4 + p5; s3 = p6 + p7;
		t0 = s0 + s1; t1 = s2 + s3;
		out = t0 + t1;
	`
	compiled, err := frontend.CompileSource(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	if len(compiled.Inputs) != 16 || len(compiled.Outputs) != 1 {
		t.Fatalf("interface: %d inputs, %d outputs", len(compiled.Inputs), len(compiled.Outputs))
	}

	design, err := hls.BuildDesign("dot8", compiled.Graph, arch.Fabric{W: 5, H: 5}, hls.DefaultConfig())
	if err != nil {
		t.Fatalf("hls: %v", err)
	}

	baseline, err := place.Place(design, place.DefaultConfig())
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	sta0 := timing.Analyze(design, baseline)
	if sta0.CPD > design.ClockPeriodNs {
		t.Fatalf("baseline misses timing: %.3f ns", sta0.CPD)
	}

	result, err := core.Remap(context.Background(), design, baseline, core.DefaultOptions())
	if err != nil {
		t.Fatalf("remap: %v", err)
	}
	if result.NewCPD > sta0.CPD+1e-9 {
		t.Fatalf("CPD regressed: %.3f -> %.3f", sta0.CPD, result.NewCPD)
	}

	// Reliability under NBTI.
	model, tcfg := nbti.DefaultModel(), thermal.DefaultConfig()
	before, err := core.Evaluate(design, baseline, model, tcfg)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	after, err := core.Evaluate(design, result.Mapping, model, tcfg)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if after.Hours < before.Hours-1e-9 {
		t.Fatalf("re-mapping shortened MTTF: %.0f -> %.0f h", before.Hours, after.Hours)
	}

	// Serialization round-trips both floorplans.
	var buf bytes.Buffer
	err = arch.WriteJSON(&buf, design, map[string]arch.Mapping{
		"baseline": baseline, "aging_aware": result.Mapping,
	})
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	d2, maps, err := arch.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("deserialize: %v", err)
	}
	if d2.NumOps() != design.NumOps() || len(maps) != 2 {
		t.Fatalf("round trip lost data: %d ops, %d maps", d2.NumOps(), len(maps))
	}
	// The deserialized floorplan re-times identically.
	sta2 := timing.Analyze(d2, maps["aging_aware"])
	if diff := sta2.CPD - result.NewCPD; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("re-timed CPD %.6f != %.6f", sta2.CPD, result.NewCPD)
	}

	// SVG artifacts render.
	svg := viz.StressSVG("after", after.Stress)
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatal("stress SVG malformed")
	}
	if s := viz.ContextSVG(design, result.Mapping, 0); !strings.Contains(s, "context 0") {
		t.Fatal("context SVG malformed")
	}

	// Wear rotation never loses to the single floorplan.
	ws, err := core.DiversifiedRemap(context.Background(), design, baseline, core.DefaultOptions(), 2)
	if err != nil {
		t.Fatalf("diversify: %v", err)
	}
	sched, err := ws.Evaluate(design, model, tcfg)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if sched.MaxStress > after.MaxStress+1e-9 {
		t.Fatalf("schedule stress %.3f above single %.3f", sched.MaxStress, after.MaxStress)
	}
}
