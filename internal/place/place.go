// Package place implements the aging-unaware baseline placer — the stand-in
// for the commercial Musketeer placement-and-routing stage whose output
// the paper's re-mapper takes as its starting point.
//
// Like the commercial tool, the placer is timing-driven and
// area-minimizing: it packs each context's operations into the smallest
// square corner region that fits (minimizing the bounding box of used
// PEs), places ops near their data producers to keep wires short, and
// iteratively repairs any clock-period violation. It deliberately does
// NOT consider aging: every context reuses the same packed corner, which
// concentrates stress on a few PEs — the behaviour the paper's Fig. 2(a)
// illustrates and the re-mapper fixes.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"agingfp/internal/arch"
	"agingfp/internal/timing"
)

// Config tunes the placer.
type Config struct {
	// Seed drives tie-breaking; placements are deterministic per seed.
	Seed int64
	// RefinePasses is the number of swap-refinement sweeps per context.
	RefinePasses int
	// MaxRepairRounds bounds the timing-repair loop per region size.
	MaxRepairRounds int
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, RefinePasses: 3, MaxRepairRounds: 20}
}

// ctxCheckMoves is how many annealing moves run between polls of the
// context: a move re-costs every op, so a canceled placement stops
// within a few milliseconds.
const ctxCheckMoves = 64

// Place computes the aging-unaware baseline floorplan for d: a mapping
// that meets the clock period with a minimal packed bounding box.
//
// It returns an error if no legal placement meeting the clock period is
// found even with the region grown to the full fabric.
func Place(d *arch.Design, cfg Config) (arch.Mapping, error) {
	return PlaceContext(context.Background(), d, cfg)
}

// PlaceContext is Place with cooperative cancellation: it polls ctx
// before each region size and every ctxCheckMoves annealing moves, and
// returns ctx.Err() once ctx is done.
func PlaceContext(ctx context.Context, d *arch.Design, cfg Config) (arch.Mapping, error) {
	if cfg.RefinePasses == 0 {
		cfg.RefinePasses = 3
	}
	if cfg.MaxRepairRounds == 0 {
		cfg.MaxRepairRounds = 20
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Smallest square region that fits the widest context.
	side := 1
	for side*side < d.MaxContextOps() {
		side++
	}
	for ; side <= max(d.Fabric.W, d.Fabric.H); side++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w, h := side, side
		if w > d.Fabric.W {
			w = d.Fabric.W
		}
		if h > d.Fabric.H {
			h = d.Fabric.H
		}
		if w*h < d.MaxContextOps() {
			continue
		}
		m := greedySeed(d, w, h, rng)
		refine(d, m, w, h, cfg.RefinePasses, rng)
		ok := repairTiming(d, m, w, h, cfg.MaxRepairRounds)
		if !ok && w >= d.Fabric.W && h >= d.Fabric.H {
			// Last resort at full fabric size: annealing repair escapes
			// the greedy repair's local optima on dense designs.
			var err error
			if ok, err = annealRepairTiming(ctx, d, m, rng, 300*d.NumOps()); err != nil {
				return nil, err
			}
		}
		if ok {
			if err := arch.ValidateMapping(d, m); err != nil {
				return nil, fmt.Errorf("place: internal error: %w", err)
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("place: cannot meet clock period %.2f ns on fabric %v",
		d.ClockPeriodNs, d.Fabric)
}

// annealRepairTiming runs a Metropolis walk on CPD overage (with a small
// wirelength tie-break), mutating m in place. Returns true once the
// design meets its clock period, or ctx.Err() once ctx is done.
func annealRepairTiming(ctx context.Context, d *arch.Design, m arch.Mapping, rng *rand.Rand, moves int) (bool, error) {
	inc := timing.NewIncremental(d, m)
	occ := make([]map[arch.Coord]int, d.NumContexts)
	for c := range occ {
		occ[c] = map[arch.Coord]int{}
	}
	for op, pe := range inc.Mapping() {
		occ[d.Ctx[op]][pe] = op
	}
	// Dense objective: total arrival excess over the clock period. The
	// CPD alone is a plateau (it only moves when THE critical path
	// changes); summing every op's violation gives the walk gradient
	// information on dense designs.
	cost := func() float64 {
		t := 0.0
		for op := 0; op < d.NumOps(); op++ {
			if over := inc.Arrival(op) - d.ClockPeriodNs; over > 0 {
				t += over
			}
		}
		return t
	}
	cur := cost()
	temp := 0.2
	cool := math.Pow(0.005/temp, 1/math.Max(1, float64(moves)))
	n := d.Fabric.NumPEs()
	for i := 0; i < moves && cur > 0; i++ {
		if i%ctxCheckMoves == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		op := rng.Intn(d.NumOps())
		c := d.Ctx[op]
		from := inc.Mapping()[op]
		to := d.Fabric.CoordOf(rng.Intn(n))
		if to == from {
			temp *= cool
			continue
		}
		other, occupied := occ[c][to]
		inc.MoveOp(op, to)
		if occupied {
			inc.MoveOp(other, from)
		}
		next := cost()
		if next <= cur || rng.Float64() < math.Exp((cur-next)/math.Max(temp, 1e-9)) {
			delete(occ[c], from)
			occ[c][to] = op
			if occupied {
				occ[c][from] = other
			}
			cur = next
		} else {
			if occupied {
				inc.MoveOp(other, to)
			}
			inc.MoveOp(op, from)
		}
		temp *= cool
	}
	if cur > 0 {
		return false, nil
	}
	copy(m, inc.Mapping())
	return true, nil
}

// greedySeed places each context's ops into the w x h corner region in
// topological order, each op at the free PE minimizing wire length to its
// already-placed producers (intra-context chained producers weighted
// heavier, since their wires burn combinational slack).
func greedySeed(d *arch.Design, w, h int, rng *rand.Rand) arch.Mapping {
	m := make(arch.Mapping, d.NumOps())
	order, _ := d.Graph.TopoOrder()
	for c := 0; c < d.NumContexts; c++ {
		free := make(map[arch.Coord]bool, w*h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				free[arch.Coord{X: x, Y: y}] = true
			}
		}
		for _, op := range order {
			if d.Ctx[op] != c {
				continue
			}
			best := arch.Coord{X: -1}
			bestCost := 1 << 30
			// Deterministic scan order plus random tie-break.
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					pe := arch.Coord{X: x, Y: y}
					if !free[pe] {
						continue
					}
					cost := 0
					for _, p := range d.Graph.Preds(op) {
						wgt := 1
						if d.Ctx[p] == c {
							wgt = 3 // chained wire: costs combinational slack
						}
						cost += wgt * m[p].Dist(pe)
					}
					// Prefer corner packing as a secondary criterion.
					cost = cost*64 + (x + y)
					if cost < bestCost || (cost == bestCost && rng.Intn(2) == 0) {
						best, bestCost = pe, cost
					}
				}
			}
			m[op] = best
			delete(free, best)
		}
	}
	return m
}

// refine runs swap-based hill climbing on weighted wirelength within each
// context.
func refine(d *arch.Design, m arch.Mapping, w, h, passes int, rng *rand.Rand) {
	for pass := 0; pass < passes; pass++ {
		for c := 0; c < d.NumContexts; c++ {
			ops := d.ContextOps(c)
			if len(ops) < 2 {
				continue
			}
			for trial := 0; trial < 4*len(ops); trial++ {
				a := ops[rng.Intn(len(ops))]
				b := ops[rng.Intn(len(ops))]
				if a == b {
					continue
				}
				before := opWireCost(d, m, a) + opWireCost(d, m, b)
				m[a], m[b] = m[b], m[a]
				after := opWireCost(d, m, a) + opWireCost(d, m, b)
				if after >= before {
					m[a], m[b] = m[b], m[a] // revert
				}
			}
		}
	}
}

// opWireCost is the weighted wirelength of all edges incident to op.
func opWireCost(d *arch.Design, m arch.Mapping, op int) int {
	cost := 0
	for _, p := range d.Graph.Preds(op) {
		wgt := 1
		if d.Ctx[p] == d.Ctx[op] {
			wgt = 3
		}
		cost += wgt * m[p].Dist(m[op])
	}
	for _, s := range d.Graph.Succs(op) {
		wgt := 1
		if d.Ctx[s] == d.Ctx[op] {
			wgt = 3
		}
		cost += wgt * m[op].Dist(m[s])
	}
	return cost
}

// repairTiming iteratively pulls the ops of period-violating paths closer
// together. Returns true once the design meets its clock period.
func repairTiming(d *arch.Design, m arch.Mapping, w, h, maxRounds int) bool {
	for round := 0; round < maxRounds; round++ {
		res := timing.Analyze(d, m)
		if res.CPD <= d.ClockPeriodNs+1e-9 {
			return true
		}
		paths := timing.EnumeratePaths(d, m, res, timing.EnumerateOptions{
			ThresholdFrac: 0.999, MaxPaths: 8, MaxPerContext: 4,
		})
		if len(paths) == 0 {
			return false
		}
		improved := false
		for _, p := range paths {
			if p.Delay <= d.ClockPeriodNs {
				continue
			}
			if shortenPath(d, m, p, w, h) {
				improved = true
			}
		}
		if !improved {
			return false
		}
	}
	res := timing.Analyze(d, m)
	return res.CPD <= d.ClockPeriodNs+1e-9
}

// shortenPath tries to reduce the wirelength of path p by moving each of
// its ops (or swapping with the occupant) to the position minimizing the
// path's wire length while not increasing the op's total wire cost
// disproportionately. Returns true if any move was applied.
func shortenPath(d *arch.Design, m arch.Mapping, p *timing.Path, w, h int) bool {
	occupant := make(map[[3]int]int)
	for op := range m {
		occupant[[3]int{d.Ctx[op], m[op].X, m[op].Y}] = op
	}
	moved := false
	for _, op := range p.Ops {
		c := d.Ctx[op]
		bestCost := pathWire(d, m, p)
		var bestPE arch.Coord
		found := false
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				pe := arch.Coord{X: x, Y: y}
				if pe == m[op] {
					continue
				}
				other, occ := occupant[[3]int{c, pe.X, pe.Y}]
				old := m[op]
				m[op] = pe
				if occ {
					m[other] = old
				}
				cost := pathWire(d, m, p)
				m[op] = old
				if occ {
					m[other] = pe
				}
				if cost < bestCost {
					bestCost, bestPE, found = cost, pe, true
				}
			}
		}
		if found {
			old := m[op]
			if other, occ := occupant[[3]int{c, bestPE.X, bestPE.Y}]; occ {
				m[other] = old
				occupant[[3]int{c, old.X, old.Y}] = other
			} else {
				delete(occupant, [3]int{c, old.X, old.Y})
			}
			m[op] = bestPE
			occupant[[3]int{c, bestPE.X, bestPE.Y}] = op
			moved = true
		}
	}
	return moved
}

// pathWire is the total wire length of p under m.
func pathWire(d *arch.Design, m arch.Mapping, p *timing.Path) int {
	wl := 0
	for _, a := range p.Arcs() {
		if a.From >= 0 {
			wl += m[a.From].Dist(m[a.To])
		}
	}
	return wl
}

// UsedRegion returns the bounding box (w, h) of all PEs used by any
// context — the area metric the baseline minimizes.
func UsedRegion(d *arch.Design, m arch.Mapping) (int, int) {
	maxX, maxY := 0, 0
	for _, pe := range m {
		if pe.X > maxX {
			maxX = pe.X
		}
		if pe.Y > maxY {
			maxY = pe.Y
		}
	}
	return maxX + 1, maxY + 1
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
