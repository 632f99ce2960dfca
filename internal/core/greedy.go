package core

import (
	"sort"

	"agingfp/internal/arch"
)

// GreedyLevel is the longest-processing-time (LPT) stress leveler: ops
// sorted by decreasing stress rate are bound, one context at a time, to
// the currently least-stressed PE available in their context.
//
// It is delay-UNAWARE: it balances stress near-optimally but freely
// stretches wires, so its floorplans usually violate the original CPD.
// The re-mapper uses it in two roles:
//
//   - as a fast feasibility pre-check inside Step 1's binary search (if
//     LPT meets a stress budget, the MILP probe can be skipped), and
//   - as the comparison baseline of ablation E7, quantifying the CPD
//     damage a naive leveler causes — the paper's core argument for the
//     delay-aware MILP.
//
// frozen maps op -> fixed coordinate for ops that must not move (empty or
// nil for a fully free leveling).
func GreedyLevel(d *arch.Design, frozen map[int]arch.Coord) arch.Mapping {
	f := d.Fabric
	n := f.NumPEs()
	acc := make([]float64, n) // accumulated stress per PE
	m := make(arch.Mapping, d.NumOps())

	// Frozen ops commit their stress first.
	for op, pe := range frozen {
		m[op] = pe
	}
	addStress(d, acc, frozen)

	for c := 0; c < d.NumContexts; c++ {
		used := make([]bool, n)
		var movable []int
		for _, op := range d.ContextOps(c) {
			if pe, ok := frozen[op]; ok {
				used[f.Index(pe)] = true
				continue
			}
			movable = append(movable, op)
		}
		// LPT order: heaviest stress first.
		sort.Slice(movable, func(i, j int) bool {
			si, sj := d.StressRate(movable[i]), d.StressRate(movable[j])
			if si != sj {
				return si > sj
			}
			return movable[i] < movable[j]
		})
		for _, op := range movable {
			best, bestAcc := -1, 0.0
			for pe := 0; pe < n; pe++ {
				if used[pe] {
					continue
				}
				if best == -1 || acc[pe] < bestAcc {
					best, bestAcc = pe, acc[pe]
				}
			}
			m[op] = f.CoordOf(best)
			used[best] = true
			acc[best] += d.StressRate(op)
		}
	}
	return m
}

// addStress adds each placed op's stress rate to its PE's entry of acc
// in ascending op order. Float sums depend on their order and Go's map
// order is random, so summing in map order would let the same input
// give right-hand sides a last ulp apart, and different floorplans.
func addStress(d *arch.Design, acc []float64, placed map[int]arch.Coord) {
	ops := make([]int, 0, len(placed))
	for op := range placed {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	for _, op := range ops {
		acc[d.Fabric.Index(placed[op])] += d.StressRate(op)
	}
}
