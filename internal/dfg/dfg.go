// Package dfg defines the data-flow graph (DFG) representation consumed by
// the CGRRA mapping flow, together with generators for named arithmetic
// kernels and random layered DAGs.
//
// A DFG is the output of the high-level-synthesis front end: a DAG of
// operations, each executed by one processing element (PE) of the CGRRA.
// Operations are typed by the PE sub-unit that executes them: the ALU
// (arithmetic/logic) or the DMU (data manipulation: shifts, multiplexing,
// packing). The two units have very different delays (0.87 ns vs 3.14 ns in
// the reference technology characterization), which is what makes stress
// rates operation-dependent.
package dfg

import (
	"fmt"
	"sort"
)

// OpKind identifies which PE sub-unit executes an operation.
type OpKind int

const (
	// ALU operations: add, sub, compare, bitwise logic.
	ALU OpKind = iota
	// DMU operations: multiply, shift networks, data manipulation.
	DMU
)

// String returns the conventional short name of the kind.
func (k OpKind) String() string {
	switch k {
	case ALU:
		return "ALU"
	case DMU:
		return "DMU"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is a single operation in the data-flow graph.
type Op struct {
	// ID is the operation's index in Graph.Ops.
	ID int
	// Kind selects the executing PE sub-unit (and hence the delay and
	// stress rate).
	Kind OpKind
	// Name is a human-readable mnemonic ("add", "mul", ...). It has no
	// semantic effect on the flow.
	Name string
}

// Edge is a data dependency: the result of From feeds an input of To.
type Edge struct {
	From, To int
}

// Graph is a data-flow graph: a DAG of typed operations.
//
// The zero value is an empty graph ready for use via AddOp/AddEdge.
type Graph struct {
	Ops   []Op
	Edges []Edge

	// succ/pred adjacency, rebuilt lazily by ensureAdj.
	succ, pred [][]int
	adjValid   bool
}

// AddOp appends an operation and returns its ID.
func (g *Graph) AddOp(kind OpKind, name string) int {
	id := len(g.Ops)
	g.Ops = append(g.Ops, Op{ID: id, Kind: kind, Name: name})
	g.adjValid = false
	return id
}

// AddEdge records a dependency from -> to. It panics if either endpoint is
// out of range; graph construction errors are programming errors, not
// runtime conditions.
func (g *Graph) AddEdge(from, to int) {
	if from < 0 || from >= len(g.Ops) || to < 0 || to >= len(g.Ops) {
		panic(fmt.Sprintf("dfg: edge (%d,%d) out of range [0,%d)", from, to, len(g.Ops)))
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to})
	g.adjValid = false
}

func (g *Graph) ensureAdj() {
	if g.adjValid {
		return
	}
	n := len(g.Ops)
	g.succ = make([][]int, n)
	g.pred = make([][]int, n)
	for _, e := range g.Edges {
		g.succ[e.From] = append(g.succ[e.From], e.To)
		g.pred[e.To] = append(g.pred[e.To], e.From)
	}
	g.adjValid = true
}

// Succs returns the successor op IDs of op (ops consuming its result).
// The returned slice is shared; callers must not modify it.
func (g *Graph) Succs(op int) []int {
	g.ensureAdj()
	return g.succ[op]
}

// Preds returns the predecessor op IDs of op (its operand producers).
// The returned slice is shared; callers must not modify it.
func (g *Graph) Preds(op int) []int {
	g.ensureAdj()
	return g.pred[op]
}

// NumOps returns the number of operations.
func (g *Graph) NumOps() int { return len(g.Ops) }

// Inputs returns the IDs of primary-input operations (in-degree zero),
// in ascending order.
func (g *Graph) Inputs() []int {
	g.ensureAdj()
	var in []int
	for i := range g.Ops {
		if len(g.pred[i]) == 0 {
			in = append(in, i)
		}
	}
	return in
}

// Outputs returns the IDs of primary-output operations (out-degree zero),
// in ascending order.
func (g *Graph) Outputs() []int {
	g.ensureAdj()
	var out []int
	for i := range g.Ops {
		if len(g.succ[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TopoOrder returns a topological ordering of the op IDs, or an error if
// the graph contains a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	g.ensureAdj()
	n := len(g.Ops)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dfg: graph contains a cycle (%d of %d ops ordered)", len(order), n)
	}
	return order, nil
}

// Validate checks structural invariants: edge endpoints in range, no
// self-loops, no duplicate edges, acyclicity, and consistent op IDs.
func (g *Graph) Validate() error {
	for i, op := range g.Ops {
		if op.ID != i {
			return fmt.Errorf("dfg: op at index %d has ID %d", i, op.ID)
		}
		if op.Kind != ALU && op.Kind != DMU {
			return fmt.Errorf("dfg: op %d has invalid kind %d", i, int(op.Kind))
		}
	}
	seen := make(map[Edge]bool, len(g.Edges))
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Ops) || e.To < 0 || e.To >= len(g.Ops) {
			return fmt.Errorf("dfg: edge (%d,%d) out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("dfg: self-loop on op %d", e.From)
		}
		if seen[e] {
			return fmt.Errorf("dfg: duplicate edge (%d,%d)", e.From, e.To)
		}
		seen[e] = true
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Levels assigns each op its ASAP level: 0 for primary inputs, and
// 1 + max(pred levels) otherwise. It returns the per-op levels and the
// total number of levels. It panics on cyclic graphs; call Validate first
// on untrusted input.
func (g *Graph) Levels() (levels []int, numLevels int) {
	order, err := g.TopoOrder()
	if err != nil {
		panic("dfg: Levels on cyclic graph: " + err.Error())
	}
	levels = make([]int, len(g.Ops))
	for _, v := range order {
		lv := 0
		for _, p := range g.Preds(v) {
			if levels[p]+1 > lv {
				lv = levels[p] + 1
			}
		}
		levels[v] = lv
		if lv+1 > numLevels {
			numLevels = lv + 1
		}
	}
	return levels, numLevels
}

// Stats summarizes a graph for reporting.
type Stats struct {
	Ops, Edges, ALUOps, DMUOps int
	Inputs, Outputs            int
	Depth                      int // number of ASAP levels
}

// Stat computes summary statistics.
func (g *Graph) Stat() Stats {
	s := Stats{Ops: len(g.Ops), Edges: len(g.Edges)}
	for _, op := range g.Ops {
		if op.Kind == ALU {
			s.ALUOps++
		} else {
			s.DMUOps++
		}
	}
	s.Inputs = len(g.Inputs())
	s.Outputs = len(g.Outputs())
	if len(g.Ops) > 0 {
		_, s.Depth = g.Levels()
	}
	return s
}

// SortedEdges returns the edges sorted by (From, To); useful for
// deterministic serialization and test comparisons.
func (g *Graph) SortedEdges() []Edge {
	es := append([]Edge(nil), g.Edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}
