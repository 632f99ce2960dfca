package lp

import (
	"time"

	"agingfp/internal/flight"
)

// Internal phase indices; the hot loop indexes fixed arrays, names are
// applied only when the profile is built.
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

// build assembles the solve's kernel profile from the accumulators and
// the final solver's dimensions: one solve, in the form the flight
// recorder aggregates. total is the measured whole-solve wall-clock,
// setup through stamping, including a rejected warm attempt when the
// solve fell back cold. BinvBytes is the basis-inverse storage the
// solve materialized: 8·M bytes per materialized row at the end of the
// solve (no row is freed within one) plus 8·M for the diagonal of the
// implicit rows.
func (p *profiler) build(s *solver, total int64) *flight.Kernel {
	k := &flight.Kernel{
		Solves:           1,
		TotalNanos:       total,
		SampleRate:       p.rate,
		RefreshEvery:     refreshN,
		MaxM:             s.m,
		MaxN:             s.n,
		BinvBytes:        8 * int64(s.m) * int64(s.rows+1),
		Iters:            int64(s.iters),
		Degenerate:       int64(s.degenTotal),
		MaxDegenerateRun: s.degenRunMax,
		Refreshes:        int64(s.refreshes),
		Phases:           make(map[string]*flight.KernelPhase, numPhases),
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
		k.Phases[phaseNames[ph]] = &flight.KernelPhase{
			Count:   count,
			Sampled: p.directCount[ph] + p.sampleN[ph],
			Nanos:   nanos,
		}
	}
	if len(p.famPivots) > 0 {
		k.FamilyPivots = p.famPivots
	}
	return k
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
