// Package thermal provides a compact steady-state thermal model of the
// CGRRA fabric, standing in for the HotSpot simulator used by the paper.
//
// The fabric is modelled as a grid of thermal nodes, one per PE. Each
// node dissipates power proportional to its NBTI stress rate (a PE's
// switching activity and its stress duty cycle are both set by the
// operation it executes), conducts heat laterally to its four grid
// neighbours through a lateral resistance Rl, and convects vertically to
// ambient through Rv (package + heat-sink path). Steady state satisfies,
// for every cell:
//
//	(T - Tamb)/Rv + sum_n (T - Tn)/Rl = P
//
// which the solver relaxes with Gauss-Seidel/SOR iterations. The model
// reproduces the property the MTTF computation depends on: temperature
// increases monotonically with local power and with the power of
// neighbours, so levelling stress also levels and lowers the hot spots.
package thermal

import (
	"errors"
	"fmt"
	"math"
)

// Config calibrates the compact model.
type Config struct {
	// AmbientK is the ambient (heat sink) temperature in kelvin.
	AmbientK float64
	// RVertical is the vertical (convection) thermal resistance per
	// cell, K/W.
	RVertical float64
	// RLateral is the lateral conduction resistance between adjacent
	// cells, K/W.
	RLateral float64
	// PowerPerStress converts a PE's accumulated stress rate into watts.
	PowerPerStress float64
	// LeakageW is a constant background power per PE.
	LeakageW float64
	// Tol is the convergence tolerance on the max temperature update per
	// sweep, in kelvin.
	Tol float64
	// MaxIter bounds the SOR sweeps.
	MaxIter int
	// Omega is the SOR over-relaxation factor in (0,2); 0 selects the
	// default.
	Omega float64
}

// DefaultConfig returns a calibration giving HotSpot-like magnitudes on
// CGRRA workloads: ambient 318 K and a spread of roughly 5-20 K between
// an idle and a fully-stressed PE. The moderate spread matters: the NBTI
// exponent 1/n amplifies temperature deltas by the 4th power, and the
// paper's MTTF gains (1.2x-3.9x) constrain how much of the gain can come
// from temperature.
func DefaultConfig() Config {
	return Config{
		AmbientK:       318.0,
		RVertical:      9.0,
		RLateral:       4.0,
		PowerPerStress: 0.8,
		LeakageW:       0.05,
		Tol:            1e-7,
		MaxIter:        20000,
		Omega:          1.7,
	}
}

// Solve computes the steady-state temperature map for the given per-cell
// power map (watts), in kelvin. The power grid must be rectangular and
// non-empty.
func Solve(power [][]float64, cfg Config) ([][]float64, error) {
	h := len(power)
	if h == 0 {
		return nil, errors.New("thermal: empty power map")
	}
	w := len(power[0])
	for y, row := range power {
		if len(row) != w {
			return nil, fmt.Errorf("thermal: ragged power map: row %d has %d cells, want %d", y, len(row), w)
		}
		for x, p := range row {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("thermal: invalid power %g at (%d,%d)", p, x, y)
			}
		}
	}
	if cfg.RVertical <= 0 || cfg.RLateral <= 0 {
		return nil, fmt.Errorf("thermal: non-positive resistances (Rv=%g, Rl=%g)", cfg.RVertical, cfg.RLateral)
	}
	omega := cfg.Omega
	if omega == 0 {
		omega = 1.5
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("thermal: SOR omega %g out of (0,2)", omega)
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-7
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 20000
	}

	t := make([][]float64, h)
	for y := range t {
		t[y] = make([]float64, w)
		for x := range t[y] {
			t[y][x] = cfg.AmbientK
		}
	}
	gv := 1 / cfg.RVertical
	gl := 1 / cfg.RLateral

	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				num := power[y][x] + cfg.AmbientK*gv
				den := gv
				if x > 0 {
					num += t[y][x-1] * gl
					den += gl
				}
				if x < w-1 {
					num += t[y][x+1] * gl
					den += gl
				}
				if y > 0 {
					num += t[y-1][x] * gl
					den += gl
				}
				if y < h-1 {
					num += t[y+1][x] * gl
					den += gl
				}
				next := num / den
				upd := t[y][x] + omega*(next-t[y][x])
				if d := math.Abs(upd - t[y][x]); d > maxDelta {
					maxDelta = d
				}
				t[y][x] = upd
			}
		}
		if maxDelta < tol {
			return t, nil
		}
	}
	return nil, fmt.Errorf("thermal: SOR did not converge in %d iterations", maxIter)
}

// PowerFromStress converts a per-PE accumulated-stress map (summed stress
// rates over contexts) into a power map, normalizing by the number of
// contexts so that power reflects time-averaged activity.
func PowerFromStress(stress [][]float64, numContexts int, cfg Config) [][]float64 {
	p := make([][]float64, len(stress))
	inv := 1.0
	if numContexts > 0 {
		inv = 1.0 / float64(numContexts)
	}
	for y, row := range stress {
		p[y] = make([]float64, len(row))
		for x, s := range row {
			p[y][x] = cfg.LeakageW + cfg.PowerPerStress*s*inv
		}
	}
	return p
}

// MaxK returns the maximum temperature of a map.
func MaxK(t [][]float64) float64 {
	m := math.Inf(-1)
	for _, row := range t {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}
