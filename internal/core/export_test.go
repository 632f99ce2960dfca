package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/lp"
	"agingfp/internal/timing"
)

// RaceDetectorEnabled lets the external test package skip its
// heavyweight sequential flows under -race, as skipUnderRace does here.
const RaceDetectorEnabled = raceDetectorEnabled

// BatchDive builds batch 0 of the first Step-2.3 probe that a Freeze
// Remap of (d, m0) under DefaultOptions solves: critical ops frozen in
// place, the monitored paths, and ST_target at the greedy Step-1 level
// or the frozen ops' stress floor, whichever is higher. It returns the
// batch LP's row count and a function that solves the relaxation and
// runs one rounding dive from it, as solveBatch's first restart does,
// reporting the LP solves made and whether the dive completed.
func BatchDive(d *arch.Design, m0 arch.Mapping) (rows int, dive func() (lpSolves int, ok bool, err error)) {
	opts := DefaultOptions()
	opts.Mode = Freeze
	res0 := timing.Analyze(d, m0)
	stress0 := arch.ComputeStress(d, m0)
	frozenPos := map[int]arch.Coord{}
	for op := range timing.CriticalOps(d, m0, res0, critEpsNs) {
		frozenPos[op] = m0[op]
	}
	paths := timing.EnumeratePaths(d, m0, res0, timing.EnumerateOptions{
		ThresholdFrac: pathThresholdFrac,
		MaxPaths:      maxPaths,
		MaxPerContext: maxPathsPerContext,
	})
	committed := make([]float64, d.Fabric.NumPEs())
	addStress(d, committed, frozenPos)
	st := math.Max(arch.ComputeStress(d, GreedyLevel(d, nil)).Max(), stress0.Mean())
	for _, v := range committed {
		st = math.Max(st, v)
	}
	inBatch := map[int]bool{}
	for _, c := range contextBatches(d)[0] {
		inBatch[c] = true
	}
	var movable []int
	for op := 0; op < d.NumOps(); op++ {
		if _, fr := frozenPos[op]; inBatch[d.Ctx[op]] && !fr {
			movable = append(movable, op)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	cands := candidateSets(d, m0, stress0, frozenPos, movable, rng)
	bp := buildBatch(d, m0, inBatch, frozenPos, cands, paths, st, committed, res0.CPD)
	return bp.lp.NumRows(), func() (int, bool, error) {
		ctx := context.Background()
		var stats Stats
		f := newFold(opts).run(&stats)
		rel, err := f.relax(ctx, bp.lp, nil)
		if err != nil {
			return stats.LPSolves, false, err
		}
		if rel.Status != lp.Optimal {
			return stats.LPSolves, false, fmt.Errorf("relaxation ended %v", rel.Status)
		}
		f.dive(0, len(bp.movable))
		_, ok, _, err := roundingDive(ctx, bp, rel.X, nil, f, rand.New(rand.NewSource(opts.Seed)), false, time.Time{}, 0, 0)
		return stats.LPSolves, ok, err
	}
}
