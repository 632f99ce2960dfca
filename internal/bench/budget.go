package bench

import (
	"context"
	"fmt"
	"strings"

	"agingfp/internal/core"
	"agingfp/internal/nbti"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// BudgetAblation is E8: the paper constrains every path to the ORIGINAL
// floorplan's CPD; on a synchronous CGRRA, however, any CPD within the
// clock period has identical performance. Relaxing the budget to the
// clock period frees wire slack (and unfreezes critical paths whose
// delay is below the clock), increasing MTTF gains at zero real cost.
type BudgetAblation struct {
	Spec Spec
	// OrigCPD and the clock period bound the two budgets.
	OrigCPD, ClockNs float64
	// PaperBudget* uses budget = original CPD (the paper's rule).
	PaperBudgetIncrease, PaperBudgetCPD float64
	// ClockBudget* uses budget = clock period (extension E8).
	ClockBudgetIncrease, ClockBudgetCPD float64
}

// RunBudgetAblation evaluates E8 for one spec.
func RunBudgetAblation(ctx context.Context, spec Spec, cfg Config) (*BudgetAblation, error) {
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
	res0 := timing.Analyze(d, m0)

	out := &BudgetAblation{Spec: spec, OrigCPD: res0.CPD, ClockNs: d.ClockPeriodNs}
	for _, relaxed := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.Seed = spec.Seed
		opts.Trace = cfg.Trace
		if relaxed {
			opts.CPDBudgetNs = d.ClockPeriodNs
		}
		r, err := core.Remap(ctx, d, m0, opts)
		if err != nil {
			return nil, err
		}
		ratio, err := core.MTTFIncrease(d, m0, r.Mapping, cfg.Model, cfg.Thermal)
		if err != nil {
			return nil, err
		}
		if relaxed {
			out.ClockBudgetIncrease, out.ClockBudgetCPD = ratio, r.NewCPD
		} else {
			out.PaperBudgetIncrease, out.PaperBudgetCPD = ratio, r.NewCPD
		}
	}
	return out, nil
}

// FormatBudgetAblation renders E8.
func FormatBudgetAblation(rows []*BudgetAblation) string {
	var b strings.Builder
	b.WriteString("E8 — delay-budget ablation: original CPD (paper) vs clock period\n")
	b.WriteString("bench  origCPD clock |  CPD-budget: incr  newCPD | clock-budget: incr  newCPD\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s  %6.3f %5.1f |        %9.2fx  %6.3f |       %9.2fx  %6.3f\n",
			r.Spec.Name, r.OrigCPD, r.ClockNs,
			r.PaperBudgetIncrease, r.PaperBudgetCPD,
			r.ClockBudgetIncrease, r.ClockBudgetCPD)
	}
	b.WriteString("(the clock-budget CPD may exceed the original CPD but never the clock,\n")
	b.WriteString(" so the design's synchronous performance is identical)\n")
	return b.String()
}
