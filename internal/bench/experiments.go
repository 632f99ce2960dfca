package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/core"
	"agingfp/internal/milp"
	"agingfp/internal/nbti"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// Fig2b regenerates the paper's Fig. 2(b): fractional threshold-voltage
// shift over time for the original and re-mapped floorplans of one
// benchmark, with the 10% failure threshold crossing (the MTTF).
type Fig2b struct {
	// Hours are the sample times.
	Hours []float64
	// Orig and Remapped are the Vth shift fractions of the limiting PE
	// under each floorplan.
	Orig, Remapped []float64
	// OrigMTTF and RemappedMTTF are the threshold crossings (hours).
	OrigMTTF, RemappedMTTF float64
	// FailFrac is the failure threshold (0.10).
	FailFrac float64
}

// RunFig2b evaluates the Vth trajectories for a spec.
func RunFig2b(ctx context.Context, spec Spec, cfg Config) (*Fig2b, error) {
	if cfg.Model.A == 0 {
		cfg.Model = nbti.DefaultModel()
	}
	if cfg.Thermal.RVertical == 0 {
		cfg.Thermal = thermal.DefaultConfig()
	}
	d, err := Synthesize(spec)
	if err != nil {
		return nil, err
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	rr, err := core.Remap(ctx, d, m0, opts)
	if err != nil {
		return nil, err
	}

	worst := func(m arch.Mapping) (sr, temp float64, mttf float64, err error) {
		rep, err := core.Evaluate(d, m, cfg.Model, cfg.Thermal)
		if err != nil {
			return 0, 0, 0, err
		}
		pe := rep.LimitingPE
		sr = rep.Stress.At(pe) / float64(d.NumContexts)
		temp = rep.Temp[pe.Y][pe.X]
		return sr, temp, rep.Hours, nil
	}
	srO, tO, mttfO, err := worst(m0)
	if err != nil {
		return nil, err
	}
	srR, tR, mttfR, err := worst(rr.Mapping)
	if err != nil {
		return nil, err
	}

	out := &Fig2b{OrigMTTF: mttfO, RemappedMTTF: mttfR, FailFrac: cfg.Model.FailFrac}
	horizon := mttfR * 1.2
	for i := 0; i <= 40; i++ {
		out.Hours = append(out.Hours, horizon*float64(i)/40)
	}
	out.Orig = cfg.Model.Trajectory(srO, tO, out.Hours)
	out.Remapped = cfg.Model.Trajectory(srR, tR, out.Hours)
	return out, nil
}

// FormatFig2b renders the two trajectories as an ASCII chart.
func FormatFig2b(f *Fig2b) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2(b) — Vth shift fraction vs time (fail at %.0f%%)\n", f.FailFrac*100)
	fmt.Fprintf(&b, "original MTTF:  %.0f h (%.2f years)\n", f.OrigMTTF, f.OrigMTTF/8760)
	fmt.Fprintf(&b, "re-mapped MTTF: %.0f h (%.2f years)  => increase %.2fx\n\n",
		f.RemappedMTTF, f.RemappedMTTF/8760, f.RemappedMTTF/f.OrigMTTF)
	b.WriteString("    hours    orig     remap\n")
	for i, h := range f.Hours {
		markO, markR := "", ""
		if i > 0 && f.Orig[i-1] < f.FailFrac && f.Orig[i] >= f.FailFrac {
			markO = " <-- original fails"
		}
		if i > 0 && f.Remapped[i-1] < f.FailFrac && f.Remapped[i] >= f.FailFrac {
			markR = " <-- re-mapped fails"
		}
		fmt.Fprintf(&b, "%9.0f  %.5f  %.5f%s%s\n", h, f.Orig[i], f.Remapped[i], markO, markR)
	}
	return b.String()
}

// ScalingPoint is one instance size of the E4 scaling experiment
// comparing the monolithic ILP of §V.A with the paper's two-step
// LP-round-ILP scheme.
type ScalingPoint struct {
	Ops int
	// TwoStep is the wall time of the production path (LP relaxation +
	// rounding dive); TwoStepOK reports whether it found a floorplan.
	TwoStep   time.Duration
	TwoStepOK bool
	// Monolithic is the wall time of a pure branch-and-bound on the same
	// formulation; MonolithicNodes the nodes it needed (or burned).
	Monolithic      time.Duration
	MonolithicOK    bool
	MonolithicNodes int
	// MonolithicStatus is the branch-and-bound's typed outcome. Before
	// the Status redesign, a node-limited search (milp.NodeLimit) was
	// indistinguishable from a proven infeasibility in this report; the
	// ok column still collapses them, so read this field when the
	// distinction matters (a NodeLimit point says "nodeCap too small",
	// not "the formulation is infeasible").
	MonolithicStatus milp.Status
}

// RunScaling runs E4 on growing synthetic instances: same fabric, rising
// op counts. nodeCap bounds the monolithic solver (the paper gave CPLEX
// five days; we give B&B a node budget).
func RunScaling(ctx context.Context, opsList []int, nodeCap int, seed int64) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for i, ops := range opsList {
		spec := Spec{
			Name: fmt.Sprintf("S%d", ops), Contexts: 4, Fabric: sq(6),
			TotalOps: ops, Band: Medium, Seed: seed + int64(i),
		}
		d, err := Synthesize(spec)
		if err != nil {
			return nil, err
		}
		m0, err := place.Place(d, place.DefaultConfig())
		if err != nil {
			return nil, err
		}
		st := arch.ComputeStress(d, m0)
		target := (st.Max() + st.Mean()) / 2 // a mid-range budget

		opts := core.DefaultOptions()
		opts.Seed = seed
		pt := ScalingPoint{Ops: d.NumOps()}

		// Two-step path.
		t0 := time.Now()
		_, okTwo, err := core.SolveRemapOnce(ctx, d, m0, target, opts)
		if err != nil {
			return nil, err
		}
		pt.TwoStep = time.Since(t0)
		pt.TwoStepOK = okTwo

		// Monolithic ILP on the identical formulation.
		t0 = time.Now()
		res, err := core.SolveRemapMonolithic(ctx, d, m0, target, opts, nodeCap)
		if err != nil {
			return nil, err
		}
		pt.Monolithic = time.Since(t0)
		pt.MonolithicOK = res.Status == milp.Optimal || res.Status == milp.Feasible
		pt.MonolithicNodes = res.Nodes
		pt.MonolithicStatus = res.Status
		out = append(out, pt)
	}
	return out, nil
}

// FormatScaling renders E4.
func FormatScaling(points []ScalingPoint) string {
	var b strings.Builder
	b.WriteString("E4 — monolithic ILP (§V.A) vs two-step LP/round/ILP (§V.B)\n")
	b.WriteString("  ops   two-step        ok   monolithic      status     nodes\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%5d   %-12v  %-5v %-12v  %-10s %d\n",
			p.Ops, p.TwoStep.Round(time.Millisecond), p.TwoStepOK,
			p.Monolithic.Round(time.Millisecond), p.MonolithicStatus, p.MonolithicNodes)
	}
	return b.String()
}

// GreedyComparison is E7: the delay-unaware LPT leveler versus the MILP.
type GreedyComparison struct {
	Spec Spec
	// GreedyMaxStress is the (excellent) stress level LPT reaches.
	GreedyMaxStress float64
	// GreedyCPD is the resulting critical path delay — typically well
	// above the original, which is the paper's core argument for a
	// delay-aware formulation.
	GreedyCPD float64
	// MILP results for the same design.
	MILPMaxStress, MILPCPD float64
	OrigMaxStress, OrigCPD float64
	// CPDViolation reports whether greedy broke the timing guarantee.
	CPDViolation bool
}

// RunGreedy runs E7 for one spec.
func RunGreedy(ctx context.Context, spec Spec) (*GreedyComparison, error) {
	d, err := Synthesize(spec)
	if err != nil {
		return nil, err
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res0 := timing.Analyze(d, m0)
	s0 := arch.ComputeStress(d, m0)

	gm := core.GreedyLevel(d, nil)
	gs := arch.ComputeStress(d, gm)
	gres := timing.Analyze(d, gm)

	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	rr, err := core.Remap(ctx, d, m0, opts)
	if err != nil {
		return nil, err
	}
	return &GreedyComparison{
		Spec:            spec,
		GreedyMaxStress: gs.Max(),
		GreedyCPD:       gres.CPD,
		MILPMaxStress:   rr.NewMaxStress,
		MILPCPD:         rr.NewCPD,
		OrigMaxStress:   s0.Max(),
		OrigCPD:         res0.CPD,
		CPDViolation:    gres.CPD > res0.CPD+1e-9,
	}, nil
}

// FormatGreedy renders E7.
func FormatGreedy(rows []*GreedyComparison) string {
	var b strings.Builder
	b.WriteString("E7 — delay-unaware LPT leveler vs delay-aware MILP\n")
	b.WriteString("bench  origStress  greedyStress  milpStress | origCPD  greedyCPD  milpCPD  greedy breaks timing?\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s  %9.3f  %11.3f  %9.3f | %7.3f  %8.3f  %7.3f  %v\n",
			r.Spec.Name, r.OrigMaxStress, r.GreedyMaxStress, r.MILPMaxStress,
			r.OrigCPD, r.GreedyCPD, r.MILPCPD, r.CPDViolation)
	}
	return b.String()
}
