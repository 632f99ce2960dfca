package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/dfg"
)

// exactMinMaxLevel returns a mapping of d that minimizes the maximum
// per-PE accumulated stress when every op may take any PE and each PE
// holds at most one op per context: the delay-unaware optimum that Step 1
// bounds. It searches depth first, context by context and heaviest op
// first, and stops a branch once its peak reaches the best found. It
// tries one PE per set of interchangeable PEs (free in the current
// context, with equal load), and places equal-rate ops of one context on
// non-decreasing loads, so each assignment is visited once up to symmetry.
func exactMinMaxLevel(d *arch.Design) arch.Mapping {
	n := d.Fabric.NumPEs()
	ops := make([][]int, d.NumContexts)
	for c := range ops {
		ops[c] = append([]int(nil), d.ContextOps(c)...)
		sort.SliceStable(ops[c], func(a, b int) bool {
			return d.StressRate(ops[c][a]) > d.StressRate(ops[c][b])
		})
	}
	load := make([]float64, n)
	usedIn := make([]int, n) // the last context that used each PE
	for p := range usedIn {
		usedIn[p] = -1
	}
	cur := make(arch.Mapping, d.NumOps())
	var best arch.Mapping
	bestPeak := math.Inf(1)
	var search func(c, i int, peak, floor float64)
	search = func(c, i int, peak, floor float64) {
		if peak >= bestPeak {
			return
		}
		if i == len(ops[c]) {
			if c+1 == len(ops) {
				best, bestPeak = cur.Clone(), peak
				return
			}
			search(c+1, 0, peak, 0)
			return
		}
		op := ops[c][i]
		r := d.StressRate(op)
		if i == 0 || d.StressRate(ops[c][i-1]) != r {
			floor = 0
		}
		// Least-loaded PEs first, so the first leaf is an LPT level.
		free := make([]int, 0, n)
		for p := 0; p < n; p++ {
			if usedIn[p] != c && load[p] >= floor {
				free = append(free, p)
			}
		}
		sort.SliceStable(free, func(a, b int) bool { return load[free[a]] < load[free[b]] })
		for k, p := range free {
			if k > 0 && load[p] == load[free[k-1]] {
				continue
			}
			prevUse, prevLoad := usedIn[p], load[p]
			usedIn[p], load[p], cur[op] = c, prevLoad+r, d.Fabric.CoordOf(p)
			search(c, i+1, math.Max(peak, load[p]), prevLoad)
			usedIn[p], load[p] = prevUse, prevLoad
		}
	}
	search(0, 0, 0, 0)
	return best
}

// TestStep1GreedyNearExact checks the Step-1 substitution (DESIGN.md
// §4b.3): the LPT greedy level that Remap takes as its Step-1 bound is a
// legal delay-unaware level, no lower than the exact min-max stress, and
// on fabrics with room to spare within an eighth of the baseline's
// (ST_up - ST_low) range of it.
func TestStep1GreedyNearExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *dfg.Graph
		// loose marks an instance whose greedy level is known to sit
		// beyond the tolerance; there only exact <= greedy is checked.
		// DCT8's first context fills the 4x4 fabric, and the per-context
		// LPT order then stacks two ALU ops on a DMU's PE: greedy 0.976
		// against an exact 0.802, tolerance 0.123 (ROADMAP, "A Step-1
		// bound that is a bound").
		loose bool
	}{
		{"fir4", dfg.FIR(4), false},
		{"iir2", dfg.IIR(2), false},
		{"dct8", dfg.DCT8(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, m0 := buildSmall(t, tc.g, 4, 4)
			gm := GreedyLevel(d, nil)
			if err := arch.ValidateMapping(d, gm); err != nil {
				t.Fatalf("greedy level illegal: %v", err)
			}
			greedy := arch.ComputeStress(d, gm).Max()
			em := exactMinMaxLevel(d)
			if err := arch.ValidateMapping(d, em); err != nil {
				t.Fatalf("exact level illegal: %v", err)
			}
			exact := arch.ComputeStress(d, em).Max()
			stress0 := arch.ComputeStress(d, m0)
			tol := (stress0.Max() - stress0.Mean()) / 8
			if exact > greedy+1e-12 {
				t.Fatalf("exact level %.4f above the greedy level %.4f", exact, greedy)
			}
			if !tc.loose && greedy > exact+tol {
				t.Fatalf("greedy level %.4f more than %.4f above the exact %.4f", greedy, tol, exact)
			}

			opts := DefaultOptions()
			opts.Mode = Freeze
			r, err := Remap(context.Background(), d, m0, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := math.Max(greedy, stress0.Mean()); r.STLowerBound != want {
				t.Errorf("Remap's Step-1 bound %.6f, want the greedy level %.6f", r.STLowerBound, want)
			}
		})
	}
}
