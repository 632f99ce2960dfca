// Package arch models the multi-context coarse-grained runtime
// reconfigurable architecture (CGRRA) targeted by the flow: a W x H grid
// of processing elements (PEs) that is time-shared by C contexts, one
// context per clock cycle.
//
// The central artifacts are:
//
//   - Design: a scheduled application — operations assigned to contexts,
//     with data edges that are either intra-context (combinational
//     chaining within a clock cycle) or cross-context (registered).
//   - Mapping: the floorplan — a PE coordinate for every operation.
//   - StressMap: the per-PE accumulated NBTI stress induced by a mapping,
//     the quantity the aging-aware re-mapper levels across the fabric.
package arch

import (
	"fmt"
	"sync"

	"agingfp/internal/dfg"
)

// Technology constants from the paper's PE characterization (§III and
// §VI): a 200 MHz clock, an 0.87 ns ALU and a 3.14 ns DMU.
const (
	// DefaultClockPeriodNs is the clock period at the 200 MHz HLS target.
	DefaultClockPeriodNs = 5.0
	// ALUDelayNs is the combinational delay through a PE's ALU.
	ALUDelayNs = 0.87
	// DMUDelayNs is the combinational delay through a PE's DMU.
	DMUDelayNs = 3.14
	// DefaultUnitWireDelayNs is the delay of one Manhattan grid hop on
	// the buffered inter-PE interconnect. Buffering makes wire delay
	// linear in length (§V.B).
	DefaultUnitWireDelayNs = 0.12
)

// OpDelayNs returns the PE-internal combinational delay of an op kind.
func OpDelayNs(k dfg.OpKind) float64 {
	if k == dfg.DMU {
		return DMUDelayNs
	}
	return ALUDelayNs
}

// Coord is a PE location on the fabric grid.
type Coord struct {
	X, Y int
}

// Dist returns the Manhattan distance to o, the wire-length metric used
// throughout the flow.
func (c Coord) Dist(o Coord) int {
	dx := c.X - o.X
	if dx < 0 {
		dx = -dx
	}
	dy := c.Y - o.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Fabric is the PE array geometry.
type Fabric struct {
	W, H int
}

// NumPEs returns the number of PEs on the fabric.
func (f Fabric) NumPEs() int { return f.W * f.H }

// Contains reports whether c lies on the fabric.
func (f Fabric) Contains(c Coord) bool {
	return c.X >= 0 && c.X < f.W && c.Y >= 0 && c.Y < f.H
}

// Index returns the row-major linear index of c.
func (f Fabric) Index(c Coord) int { return c.Y*f.W + c.X }

// CoordOf returns the coordinate of the row-major linear index i.
func (f Fabric) CoordOf(i int) Coord { return Coord{X: i % f.W, Y: i / f.W} }

// String implements fmt.Stringer.
func (f Fabric) String() string { return fmt.Sprintf("%dx%d", f.W, f.H) }

// Design is a scheduled application ready for floorplanning: every
// operation carries a context (clock cycle) assignment, and every data
// edge is classified by the schedule as chained (same context) or
// registered (producer in an earlier context).
type Design struct {
	// Name identifies the design in reports.
	Name string
	// Fabric is the target PE array.
	Fabric Fabric
	// NumContexts is the number of contexts C (= the design latency in
	// clock cycles).
	NumContexts int
	// Graph is the underlying data-flow graph.
	Graph *dfg.Graph
	// Ctx[i] is the context (0-based) executing op i. Edges must satisfy
	// Ctx[From] <= Ctx[To]; equality means combinational chaining.
	Ctx []int
	// ClockPeriodNs is the clock period (default DefaultClockPeriodNs).
	ClockPeriodNs float64
	// UnitWireDelayNs is the per-hop wire delay (default
	// DefaultUnitWireDelayNs).
	UnitWireDelayNs float64

	ctxMu   sync.Mutex // guards the lazy caches below
	ctxOps  [][]int    // per-context op lists, built lazily
	ctxOpsV bool
}

// NewDesign wraps a scheduled graph into a Design with default timing
// constants. ctx[i] is the context of op i.
func NewDesign(name string, f Fabric, numContexts int, g *dfg.Graph, ctx []int) *Design {
	return &Design{
		Name:            name,
		Fabric:          f,
		NumContexts:     numContexts,
		Graph:           g,
		Ctx:             ctx,
		ClockPeriodNs:   DefaultClockPeriodNs,
		UnitWireDelayNs: DefaultUnitWireDelayNs,
	}
}

// ContextOps returns the op IDs scheduled in context c. The slice is
// shared; callers must not modify it. Safe for concurrent use.
func (d *Design) ContextOps(c int) []int {
	d.ctxMu.Lock()
	if !d.ctxOpsV {
		d.buildCtxOpsLocked()
	}
	ops := d.ctxOps[c]
	d.ctxMu.Unlock()
	return ops
}

// Precompute forces the lazy per-context caches to be built now. Callers
// that fan a Design out to several goroutines call this first so the
// workers share one copy instead of racing to build their own.
func (d *Design) Precompute() {
	d.ctxMu.Lock()
	if !d.ctxOpsV {
		d.buildCtxOpsLocked()
	}
	d.ctxMu.Unlock()
}

func (d *Design) buildCtxOpsLocked() {
	d.ctxOps = make([][]int, d.NumContexts)
	for op, cx := range d.Ctx {
		d.ctxOps[cx] = append(d.ctxOps[cx], op)
	}
	d.ctxOpsV = true
}

// NumOps returns the number of operations in the design.
func (d *Design) NumOps() int { return d.Graph.NumOps() }

// StressRate returns the NBTI stress rate of op: its duty cycle within a
// clock period, i.e. PE delay over clock period (§III).
func (d *Design) StressRate(op int) float64 {
	return OpDelayNs(d.Graph.Ops[op].Kind) / d.ClockPeriodNs
}

// MaxContextOps returns the largest per-context op count; the fabric must
// have at least this many PEs.
func (d *Design) MaxContextOps() int {
	m := 0
	for c := 0; c < d.NumContexts; c++ {
		if n := len(d.ContextOps(c)); n > m {
			m = n
		}
	}
	return m
}

// Validate checks schedule invariants: context range, edge causality
// (producer context <= consumer context), per-context op counts within
// fabric capacity, and positive timing constants.
func (d *Design) Validate() error {
	if d.Fabric.W < 1 || d.Fabric.H < 1 {
		return fmt.Errorf("arch: invalid fabric %v", d.Fabric)
	}
	if d.NumContexts < 1 {
		return fmt.Errorf("arch: NumContexts = %d", d.NumContexts)
	}
	if len(d.Ctx) != d.Graph.NumOps() {
		return fmt.Errorf("arch: Ctx length %d != ops %d", len(d.Ctx), d.Graph.NumOps())
	}
	if d.ClockPeriodNs <= 0 || d.UnitWireDelayNs < 0 {
		return fmt.Errorf("arch: non-positive timing constants (period %g, unit wire %g)",
			d.ClockPeriodNs, d.UnitWireDelayNs)
	}
	if err := d.Graph.Validate(); err != nil {
		return err
	}
	for op, c := range d.Ctx {
		if c < 0 || c >= d.NumContexts {
			return fmt.Errorf("arch: op %d in context %d, want [0,%d)", op, c, d.NumContexts)
		}
	}
	for _, e := range d.Graph.Edges {
		if d.Ctx[e.From] > d.Ctx[e.To] {
			return fmt.Errorf("arch: edge (%d,%d) violates causality: contexts %d > %d",
				e.From, e.To, d.Ctx[e.From], d.Ctx[e.To])
		}
	}
	for c := 0; c < d.NumContexts; c++ {
		if n := len(d.ContextOps(c)); n > d.Fabric.NumPEs() {
			return fmt.Errorf("arch: context %d has %d ops, fabric %v has %d PEs",
				c, n, d.Fabric, d.Fabric.NumPEs())
		}
	}
	return nil
}

// UtilizationRate returns the average per-context fabric utilization:
// ops / (contexts * PEs). Table I's low/medium/high bands correspond to
// roughly <=0.40, 0.40-0.65 and >0.65.
func (d *Design) UtilizationRate() float64 {
	return float64(d.Graph.NumOps()) / float64(d.NumContexts*d.Fabric.NumPEs())
}

// Mapping is a floorplan: Mapping[op] is the PE executing op in its
// context. A valid mapping places at most one op per PE per context.
type Mapping []Coord

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping { return append(Mapping(nil), m...) }

// ValidateMapping checks that m is a legal floorplan for d: every op on
// the fabric and no two ops of the same context sharing a PE.
func ValidateMapping(d *Design, m Mapping) error {
	if len(m) != d.NumOps() {
		return fmt.Errorf("arch: mapping length %d != ops %d", len(m), d.NumOps())
	}
	for op, c := range m {
		if !d.Fabric.Contains(c) {
			return fmt.Errorf("arch: op %d at %v outside fabric %v", op, c, d.Fabric)
		}
	}
	occupied := make(map[[3]int]int)
	for op := range m {
		key := [3]int{d.Ctx[op], m[op].X, m[op].Y}
		if prev, ok := occupied[key]; ok {
			return fmt.Errorf("arch: ops %d and %d share PE %v in context %d",
				prev, op, m[op], d.Ctx[op])
		}
		occupied[key] = op
	}
	return nil
}

// StressMap holds the per-PE accumulated stress time (summed stress rates
// over all contexts), indexed [y][x].
type StressMap [][]float64

// NewStressMap allocates a zero stress map for f.
func NewStressMap(f Fabric) StressMap {
	s := make(StressMap, f.H)
	cells := make([]float64, f.W*f.H)
	for y := range s {
		s[y], cells = cells[:f.W], cells[f.W:]
	}
	return s
}

// At returns the stress at coordinate c.
func (s StressMap) At(c Coord) float64 { return s[c.Y][c.X] }

// Max returns the maximum accumulated stress over all PEs — the quantity
// that determines fabric MTTF.
func (s StressMap) Max() float64 {
	m := 0.0
	for _, row := range s {
		for _, v := range row {
			if v > m {
				m = v
			}
		}
	}
	return m
}

// Total returns the summed stress over all PEs. Re-binding conserves this
// quantity (stress moves between PEs, it is never created or destroyed).
func (s StressMap) Total() float64 {
	t := 0.0
	for _, row := range s {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Mean returns the average accumulated stress over all PEs, the paper's
// ST_low starting point for the binary search.
func (s StressMap) Mean() float64 {
	n := 0
	for _, row := range s {
		n += len(row)
	}
	if n == 0 {
		return 0
	}
	return s.Total() / float64(n)
}

// ComputeStress accumulates per-PE stress for mapping m of design d:
// each op adds its stress rate to the PE it occupies, summed across all
// contexts (§III: accumulated stress time).
func ComputeStress(d *Design, m Mapping) StressMap {
	s := NewStressMap(d.Fabric)
	for op, c := range m {
		s[c.Y][c.X] += d.StressRate(op)
	}
	return s
}
