package bench

import (
	"context"
	"fmt"
	"strings"

	"agingfp/internal/core"
	"agingfp/internal/nbti"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
)

// WearResult is E9: rotating between several CPD-safe aging-aware
// floorplans over time (the related-work module-diversification idea
// composed with the paper's re-mapper).
type WearResult struct {
	Spec Spec
	// Configurations actually collected (duplicates dropped).
	Configurations int
	// SingleIncrease is the best single floorplan's MTTF increase;
	// ScheduleIncrease the alternating schedule's.
	SingleIncrease, ScheduleIncrease float64
}

// RunWear evaluates a k-configuration wear schedule for one spec.
func RunWear(ctx context.Context, spec Spec, cfg Config, k int) (*WearResult, error) {
	if cfg.Model.A == 0 {
		cfg.Model = nbti.DefaultModel()
	}
	if cfg.Thermal.RVertical == 0 {
		cfg.Thermal = thermal.DefaultConfig()
	}
	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	opts.Trace = cfg.Trace
	d, err := Synthesize(spec)
	if err != nil {
		return nil, err
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		return nil, err
	}
	before, err := core.Evaluate(d, m0, cfg.Model, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	ws, err := core.DiversifiedRemap(ctx, d, m0, opts, k)
	if err != nil {
		return nil, err
	}
	single, err := core.Evaluate(d, ws.Mappings[0], cfg.Model, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	sched, err := ws.Evaluate(d, cfg.Model, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	return &WearResult{
		Spec:             spec,
		Configurations:   len(ws.Mappings),
		SingleIncrease:   single.Hours / before.Hours,
		ScheduleIncrease: sched.Hours / before.Hours,
	}, nil
}

// FormatWear renders E9.
func FormatWear(rows []*WearResult) string {
	var b strings.Builder
	b.WriteString("E9 — wear-rotation schedules over diversified aging-aware floorplans\n")
	b.WriteString("bench  configs  single-floorplan  rotating-schedule\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s  %7d  %15.2fx  %16.2fx\n",
			r.Spec.Name, r.Configurations, r.SingleIncrease, r.ScheduleIncrease)
	}
	b.WriteString("(alternating distinct CPD-safe floorplans time-averages the stress\n")
	b.WriteString(" maps, so the schedule is never worse than its best member)\n")
	return b.String()
}
