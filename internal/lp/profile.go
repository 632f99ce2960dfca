package lp

import (
	"time"

	"agingfp/internal/flight"
)

// Internal phase indices; the hot loop indexes fixed arrays, names are
// applied only when the Profile is built.
const (
	phSetup = iota
	phPricing
	phFtran
	phRatio
	phUpdate
	phRefresh
	numPhases
)

var phaseNames = [numPhases]string{flight.PhaseSetup, flight.PhasePricing, flight.PhaseFtran, flight.PhaseRatio, flight.PhaseUpdate, flight.PhaseRefresh}

// DefaultProfileRate is the default iteration-sampling stride: one in
// every N simplex iterations is wall-clock timed and the per-phase
// totals extrapolated from the sample, keeping profiler-on overhead
// under the ~2% budget while phase *counts* stay exact.
const DefaultProfileRate = 16

// PhaseStat is one phase's accumulated effort in a Profile.
type PhaseStat struct {
	// Count is the exact number of times the phase ran (always-on).
	Count int64 `json:"count"`
	// Sampled is how many of those runs were wall-clock timed.
	Sampled int64 `json:"sampled"`
	// Nanos is the wall-clock attributed to the phase: directly-timed
	// phases exactly, loop phases extrapolated as
	// sampledNanos * Count / Sampled.
	Nanos int64 `json:"nanos"`
}

// Profile is the kernel profile of one LP solve, attached to
// Solution.Profile when Options.Profile is set. It attributes the solve's
// wall-clock to the named simplex phases and carries the basis-health
// stats the sparse-LU rework will be judged against.
type Profile struct {
	// TotalNanos is the measured wall-clock of the whole solve (setup
	// through stamping, including a rejected warm attempt when the solve
	// fell back cold).
	TotalNanos int64 `json:"total_nanos"`
	// SampleRate is the iteration-sampling stride used.
	SampleRate int `json:"sample_rate"`
	// Iters is the simplex iteration count (== Solution.Iters).
	Iters int `json:"iters"`
	// M/N are the row and total column counts; BinvBytes is the
	// basis-inverse storage the solve materialized: 8·M bytes per
	// materialized row at the end of the solve (no row is freed within
	// one) plus 8·M for the diagonal of the implicit rows.
	M         int   `json:"m"`
	N         int   `json:"n"`
	BinvBytes int64 `json:"binv_bytes"`
	// RefreshEvery is the primal-refresh cadence (iterations between
	// refreshes) the solve ran with.
	RefreshEvery int `json:"refresh_every"`
	// Refreshes/Degenerate mirror the Solution counters;
	// MaxDegenerateRun is the longest consecutive degenerate-pivot run.
	Refreshes        int `json:"refreshes"`
	Degenerate       int `json:"degenerate"`
	MaxDegenerateRun int `json:"max_degenerate_run"`
	// Phases attributes wall-clock by phase name.
	Phases map[string]*PhaseStat `json:"phases"`
	// FamilyPivots counts pivots by the constraint family of the leaving
	// row (Problem.SetRowFamily), "other" for unlabeled rows.
	FamilyPivots map[string]int64 `json:"family_pivots,omitempty"`
}

// Coverage reports the fraction of TotalNanos the phases account for.
func (p *Profile) Coverage() float64 {
	if p == nil || p.TotalNanos <= 0 {
		return 0
	}
	var attr int64
	for _, ph := range p.Phases {
		attr += ph.Nanos
	}
	return float64(attr) / float64(p.TotalNanos)
}

// Kernel converts the per-solve profile into a flight-journal kernel
// contribution (what Recorder.NoteKernel merges).
func (p *Profile) Kernel() *flight.Kernel {
	k := &flight.Kernel{
		Solves:           1,
		TotalNanos:       p.TotalNanos,
		SampleRate:       p.SampleRate,
		RefreshEvery:     p.RefreshEvery,
		MaxM:             p.M,
		MaxN:             p.N,
		BinvBytes:        p.BinvBytes,
		Iters:            int64(p.Iters),
		Degenerate:       int64(p.Degenerate),
		MaxDegenerateRun: p.MaxDegenerateRun,
		Refreshes:        int64(p.Refreshes),
	}
	for name, ph := range p.Phases {
		if k.Phases == nil {
			k.Phases = make(map[string]*flight.KernelPhase, len(p.Phases))
		}
		k.Phases[name] = &flight.KernelPhase{Count: ph.Count, Sampled: ph.Sampled, Nanos: ph.Nanos}
	}
	for fam, n := range p.FamilyPivots {
		if k.FamilyPivots == nil {
			k.FamilyPivots = make(map[string]int64, len(p.FamilyPivots))
		}
		k.FamilyPivots[fam] += n
	}
	return k
}

// profiler is the measurement state threaded through one Solve. Two
// accumulator families per phase keep the extrapolation honest:
//
//   - direct phases (setup, refresh, dual recomputation) are timed on
//     every occurrence — they are rare or already O(m²), so two clock
//     reads are noise;
//   - loop phases (pricing, ftran, ratio, update) are counted on every
//     iteration but timed only on sampled iterations (the first of
//     every solve, then every rate-th), and their totals extrapolated
//     by count/sampled.
//
// Mixing the two inside one phase is safe because the estimate is
// directNanos + sampledNanos·loopCount/sampleN — the direct part never
// enters the extrapolation.
type profiler struct {
	rate  int
	clock func() int64
	iters int64 // loop iterations observed, drives sampling

	directCount  [numPhases]int64
	directNanos  [numPhases]int64
	loopCount    [numPhases]int64
	sampleN      [numPhases]int64
	sampledNanos [numPhases]int64

	famPivots map[string]int64
}

func newProfiler(rate int, clock func() int64) *profiler {
	if rate <= 0 {
		rate = DefaultProfileRate
	}
	if clock == nil {
		base := time.Now()
		clock = func() int64 { return int64(time.Since(base)) }
	}
	return &profiler{rate: rate, clock: clock}
}

// beginIter advances the iteration counter and reports whether this
// iteration's phases should be wall-clock timed. The first iteration of
// every solve is always timed, so even a short warm reoptimization gets
// at least one sample per phase it runs.
func (p *profiler) beginIter() bool {
	p.iters++
	return (p.iters-1)%int64(p.rate) == 0
}

// phase closes one loop phase: the count always advances; on a timed
// iteration the elapsed nanos since t0 are accumulated and the current
// clock returned as the next phase's t0.
func (p *profiler) phase(ph int, timed bool, t0 int64) int64 {
	p.loopCount[ph]++
	if !timed {
		return 0
	}
	now := p.clock()
	p.sampleN[ph]++
	p.sampledNanos[ph] += now - t0
	return now
}

// direct closes one always-timed phase occurrence started at t0.
func (p *profiler) direct(ph int, t0 int64) {
	p.directCount[ph]++
	p.directNanos[ph] += p.clock() - t0
}

// pivotFamily attributes one pivot to the leaving row's constraint
// family (always-on counting; a map increment per pivot).
func (p *profiler) pivotFamily(fam string) {
	if p.famPivots == nil {
		p.famPivots = make(map[string]int64, 8)
	}
	p.famPivots[fam]++
}

// build assembles the Profile from the accumulators and the final
// solver's dimensions. total is the measured whole-solve wall-clock.
func (p *profiler) build(s *solver, total int64) *Profile {
	pr := &Profile{
		TotalNanos:       total,
		SampleRate:       p.rate,
		Iters:            s.iters,
		M:                s.m,
		N:                s.n,
		BinvBytes:        8 * int64(s.m) * int64(s.rows+1),
		RefreshEvery:     refreshN,
		Refreshes:        s.refreshes,
		Degenerate:       s.degenTotal,
		MaxDegenerateRun: s.degenRunMax,
		Phases:           make(map[string]*PhaseStat, numPhases),
	}
	for ph := 0; ph < numPhases; ph++ {
		count := p.directCount[ph] + p.loopCount[ph]
		if count == 0 {
			continue
		}
		nanos := p.directNanos[ph]
		if p.sampleN[ph] > 0 {
			nanos += int64(float64(p.sampledNanos[ph]) * float64(p.loopCount[ph]) / float64(p.sampleN[ph]))
		}
		pr.Phases[phaseNames[ph]] = &PhaseStat{
			Count:   count,
			Sampled: p.directCount[ph] + p.sampleN[ph],
			Nanos:   nanos,
		}
	}
	if len(p.famPivots) > 0 {
		pr.FamilyPivots = p.famPivots
	}
	return pr
}

// rowFamilyOf names the constraint family of row i, "other" when
// unlabeled or out of range (slack-only rows can never leave, so every
// leaving row is a real constraint row).
func (s *solver) rowFamilyOf(i int) string {
	if i >= 0 && i < len(s.rowFam) && s.rowFam[i] != "" {
		return s.rowFam[i]
	}
	return "other"
}
