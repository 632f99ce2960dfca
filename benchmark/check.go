package main

// The output checker recomputes the paper's invariants from the design
// and the returned floorplan alone. It deliberately imports no solver
// package: a bug in the re-mapper cannot also hide in the code that
// judges it.

import (
	"fmt"
	"math"

	"agingfp/internal/arch"
	"agingfp/internal/timing"
)

// tol absorbs floating-point summation order in recomputed values.
const tol = 1e-9

// floorplanClaim is what one solver answer says about one floorplan,
// in the numbering of the design it is checked against.
type floorplanClaim struct {
	Mapping   arch.Mapping
	MaxStress float64 // reported new max stress
	STTarget  float64 // reported stress budget
	NewCPD    float64 // reported re-timed CPD
	OrigCPD   float64 // reported baseline CPD
	// ExactStress requires the recomputed max stress to equal MaxStress
	// (the service reports it verbatim); otherwise it only bounds it.
	ExactStress bool
}

// checkFloorplan verifies one answer against design d and its baseline
// floorplan: a legal assignment, recomputed per-PE stress within the
// reported maximum and budget, and a re-timed CPD no worse than the
// baseline's. It returns one message per violated invariant.
func checkFloorplan(d *arch.Design, baseline arch.Mapping, c floorplanClaim) []string {
	var bad []string
	if err := arch.ValidateMapping(d, c.Mapping); err != nil {
		return []string{fmt.Sprintf("invalid assignment: %v", err)}
	}
	stress := arch.ComputeStress(d, c.Mapping).Max()
	if c.ExactStress && math.Abs(stress-c.MaxStress) > tol {
		bad = append(bad, fmt.Sprintf("recomputed max stress %.12g != reported %.12g", stress, c.MaxStress))
	}
	if stress > c.MaxStress+tol {
		bad = append(bad, fmt.Sprintf("recomputed max stress %.12g > reported %.12g", stress, c.MaxStress))
	}
	if stress > c.STTarget+tol {
		bad = append(bad, fmt.Sprintf("recomputed max stress %.12g > ST_target %.12g", stress, c.STTarget))
	}
	cpd := timing.Analyze(d, c.Mapping).CPD
	origCPD := timing.Analyze(d, baseline).CPD
	if cpd > origCPD+tol {
		bad = append(bad, fmt.Sprintf("re-timed CPD %.12g > baseline CPD %.12g", cpd, origCPD))
	}
	if c.NewCPD > c.OrigCPD+tol {
		bad = append(bad, fmt.Sprintf("reported CPD %.12g > reported baseline CPD %.12g", c.NewCPD, c.OrigCPD))
	}
	return bad
}

// checkRotateVsFreeze verifies the complete method is at least as good
// as the Freeze ablation on recomputed max stress.
func checkRotateVsFreeze(d *arch.Design, freeze, rotate arch.Mapping) []string {
	fs := arch.ComputeStress(d, freeze).Max()
	rs := arch.ComputeStress(d, rotate).Max()
	if rs > fs+tol {
		return []string{fmt.Sprintf("rotate max stress %.12g > freeze %.12g", rs, fs)}
	}
	return nil
}

// checkRenumbered verifies a floorplan returned for a renumbered copy of
// a design: op i of the original sits at renumbered index perm[i], so
// it must occupy the PE the original answer gave op i.
func checkRenumbered(orig, renumbered arch.Mapping, perm []int) []string {
	if len(orig) != len(perm) || len(renumbered) != len(perm) {
		return []string{fmt.Sprintf("renumbered mapping has %d ops, original %d, permutation %d",
			len(renumbered), len(orig), len(perm))}
	}
	for i, p := range perm {
		if renumbered[p] != orig[i] {
			return []string{fmt.Sprintf("op %d (renumbered %d) at %v, original answer %v", i, p, renumbered[p], orig[i])}
		}
	}
	return nil
}

// mappingFromCells converts a result document's [x, y] cells.
func mappingFromCells(cells [][2]int) arch.Mapping {
	m := make(arch.Mapping, len(cells))
	for i, c := range cells {
		m[i] = arch.Coord{X: c[0], Y: c[1]}
	}
	return m
}
