package core

import (
	"context"

	"agingfp/internal/arch"
	"agingfp/internal/lp"
)

// Prior packages the artifacts a finished Remap exported (see
// Result.FrozenOps / Result.Bases / Result.STTarget) for seeding a
// re-solve of a near-identical design — the serve layer's delta API.
//
// Every field is advisory: seeding can only skip work, never force a
// wrong answer. Frozen rotations are revalidated against the new
// design's critical ops, the ST bracket is re-probed (a miss falls
// back to the normal budget search), and basis snapshots go through
// the LP layer's warm-start validation, which rejects anything whose
// shape no longer fits.
type Prior struct {
	// Frozen is the prior solution's frozen critical-op positions,
	// keyed by op index in the NEW design's numbering (the caller
	// aligns numberings; ops that no longer exist are simply absent).
	Frozen map[int]arch.Coord
	// STTarget is the prior solve's final budget. The re-solve probes it
	// first, clamped into this design's own search range.
	STTarget float64
	// Bases are per-batch LP basis snapshots from the prior search.
	Bases []*lp.Basis
	// Mapping is the prior solve's floorplan, in the NEW design's op
	// numbering. The bracket resume validates it directly against the
	// new instance (structure, per-PE stress at the prior target, CPD
	// under the delay budget) — on an unchanged or gently-mutated
	// design this replaces the bracket's whole MILP probe with one
	// timing analysis. The probe pool's lazy path rows accumulate
	// across a solve, so re-running the MILP would not reliably
	// reproduce the prior's winning probe; validating its output does.
	Mapping arch.Mapping
}

// RemapFromPrior runs Remap seeded with a previous solve's artifacts.
//
// It opts into Options.WarmHeuristics — the point of a seeded re-solve
// is speed, and serving recorded bases to the relaxations is where
// most of the savings live — so the result may be a different (still
// budget- and CPD-valid) floorplan than a cold Remap would produce.
// Callers needing bit-reproducibility must solve cold.
//
// The returned Result.Resume reports which artifacts were actually
// used.
func RemapFromPrior(ctx context.Context, d *arch.Design, m0 arch.Mapping, opts Options, prior *Prior) (*Result, error) {
	opts.prior = prior
	if prior != nil {
		opts.WarmHeuristics = true
	}
	return Remap(ctx, d, m0, opts)
}

// priorFrozen decides whether the prior's frozen rotations still cover
// this design's critical ops, returning the reusable frozen map. Reuse
// requires every critical op to have a prior position that is on the
// fabric, with no two frozen ops of one context sharing a PE — the
// same invariants rotateFrozen guarantees. Ops the prior froze that
// are no longer critical are dropped (keeping them would only tighten
// the floor for no timing benefit).
func priorFrozen(d *arch.Design, crit map[int]bool, prior *Prior) (map[int]arch.Coord, bool) {
	if prior == nil || prior.Frozen == nil {
		return nil, false
	}
	out := make(map[int]arch.Coord, len(crit))
	used := make(map[[3]int]bool, len(crit))
	for op := range crit {
		pe, ok := prior.Frozen[op]
		if !ok || op >= d.NumOps() {
			return nil, false
		}
		if pe.X < 0 || pe.X >= d.Fabric.W || pe.Y < 0 || pe.Y >= d.Fabric.H {
			return nil, false
		}
		key := [3]int{d.Ctx[op], pe.X, pe.Y}
		if used[key] {
			return nil, false
		}
		used[key] = true
		out[op] = pe
	}
	return out, true
}
