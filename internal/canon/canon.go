// Package canon computes a canonical form for design documents so that
// structurally-equal submissions — the same DFG and context schedule
// under a different op/context numbering, different cosmetic names, or
// extra non-baseline mappings — map to the same cache key.
//
// The canonical form is a full renumbered document, not just a hash:
// the serve layer solves the canonical instance and translates the
// mapping back through Form.OpPerm, which is what makes semantic cache
// hits byte-identical to cold solves of any isomorphic submission.
//
// Soundness does not rest on the refinement being a complete
// isomorphism test. The semantic key is the hash of the entire
// canonical document, so two designs collide only if their canonical
// documents are equal — i.e. they really are the same instance. A
// Weisfeiler–Leman tie the refinement fails to break can at worst
// order automorphism-suspect ops differently for two isomorphic
// submissions, producing different canonical bytes and a missed cache
// hit, never a wrong one.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"

	"agingfp/internal/arch"
)

// Form is the canonical renumbering of a design document.
type Form struct {
	// Doc is the canonical document: ops and contexts renumbered,
	// cosmetic names cleared, edges sorted, and only the semantically
	// meaningful "baseline" mapping retained.
	Doc *arch.Document
	// OpPerm maps original op index -> canonical op index.
	OpPerm []int
	// CtxPerm maps original context index -> canonical context index.
	CtxPerm []int
	// Hash is the hex SHA-256 of the canonical document's JSON — the
	// semantic identity of the instance (options excluded; the serve
	// layer mixes those in separately).
	Hash string
}

// BaselineMapping is the one mapping name with solve-time meaning: it
// is the starting floorplan the re-mapper improves on. All other
// mappings in a submitted document are ignored by the solver and are
// therefore excluded from semantic identity.
const BaselineMapping = "baseline"

// edge roles distinguish combinational chaining (producer and consumer
// share a context) from registered transfers (consumer runs in a later
// context); the two have different timing semantics, so the refinement
// must not confuse them.
const (
	roleChained    = 0
	roleRegistered = 1
)

// Canonicalize validates doc and computes its canonical form. A
// document that does not decode returns arch.FromDocument's error
// unwrapped: it already names the fault, so callers can relay it as is.
//
// The renumbering is deterministic and isomorphism-invariant up to WL
// ties: ops are colored by Weisfeiler–Leman refinement over op kinds,
// edge roles, context membership, and (when present) baseline
// coordinates; contexts are ordered by a signature-guided linear
// extension of the context-precedence DAG, which preserves edge
// causality (Ctx[From] <= Ctx[To]) and is semantically free because
// context indices are pure labels in the timing and stress models.
func Canonicalize(doc *arch.Document) (*Form, error) {
	d, mappings, err := arch.FromDocument(doc)
	if err != nil {
		return nil, err
	}
	n := d.NumOps()
	baseline := mappings[BaselineMapping]

	colors := refine(d, baseline)

	ctxPerm := orderContexts(d, colors)

	// Re-color with canonical context identity folded in, then order
	// ops by (canonical context, color, original index). The original
	// index only breaks ties between WL-equivalent ops; for isomorphic
	// submissions those ops produce identical canonical rows whenever
	// they are genuinely automorphic.
	final := make([]uint64, n)
	for i := 0; i < n; i++ {
		final[i] = mix(colors[i], uint64(ctxPerm[d.Ctx[i]]))
	}
	final = refineEdges(d, final, 2)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := order[a], order[b]
		if ctxPerm[d.Ctx[oa]] != ctxPerm[d.Ctx[ob]] {
			return ctxPerm[d.Ctx[oa]] < ctxPerm[d.Ctx[ob]]
		}
		if final[oa] != final[ob] {
			return final[oa] < final[ob]
		}
		return oa < ob
	})
	opPerm := make([]int, n)
	for canonIdx, orig := range order {
		opPerm[orig] = canonIdx
	}

	canonDoc := Renumber(doc, d, baseline, opPerm, ctxPerm)

	payload, err := canonDoc.AppendJSON(nil)
	if err != nil {
		return nil, fmt.Errorf("canon: marshal canonical doc: %w", err)
	}
	sum := sha256.Sum256(payload)
	return &Form{
		Doc:     canonDoc,
		OpPerm:  opPerm,
		CtxPerm: ctxPerm,
		Hash:    hex.EncodeToString(sum[:]),
	}, nil
}

// Renumber builds the canonical document for doc under the given
// permutations. d must be the design built from doc and baseline its
// baseline mapping (nil when absent). Cosmetic fields (design name, op
// names) are cleared and non-baseline mappings dropped: neither affects
// the solve, so neither may affect semantic identity.
func Renumber(doc *arch.Document, d *arch.Design, baseline arch.Mapping, opPerm, ctxPerm []int) *arch.Document {
	n := d.NumOps()
	out := &arch.Document{
		FabricW:         d.Fabric.W,
		FabricH:         d.Fabric.H,
		NumContexts:     d.NumContexts,
		ClockPeriodNs:   d.ClockPeriodNs,
		UnitWireDelayNs: d.UnitWireDelayNs,
		Ops:             make([]arch.DocOp, n),
	}
	for i := 0; i < n; i++ {
		out.Ops[opPerm[i]] = arch.DocOp{
			Kind: int(d.Graph.Ops[i].Kind),
			Ctx:  ctxPerm[d.Ctx[i]],
		}
	}
	edges := make([][2]int, 0, len(d.Graph.Edges))
	for _, e := range d.Graph.Edges {
		edges = append(edges, [2]int{opPerm[e.From], opPerm[e.To]})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	out.Edges = edges
	if baseline != nil {
		m := make([][2]int, n)
		for i := 0; i < n; i++ {
			m[opPerm[i]] = [2]int{baseline[i].X, baseline[i].Y}
		}
		out.Mappings = map[string][][2]int{BaselineMapping: m}
	}
	return out
}

// TranslateMapping converts a mapping over canonical op indices back to
// the caller's original numbering: out[i] = canonical[opPerm[i]].
func TranslateMapping(canonical []arch.Coord, opPerm []int) []arch.Coord {
	out := make([]arch.Coord, len(opPerm))
	for i, p := range opPerm {
		out[i] = canonical[p]
	}
	return out
}

// refine runs WL color refinement over the op set. The initial color
// is the op kind plus, when a baseline mapping is present, the op's
// starting coordinate (the baseline is part of the instance: two
// designs with different starting floorplans are different workloads,
// and the coordinate also breaks most WL ties outright). Rounds fold
// in edge-neighborhood structure and context membership until the
// color partition stops splitting.
func refine(d *arch.Design, baseline arch.Mapping) []uint64 {
	n := d.NumOps()
	colors := make([]uint64, n)
	for i := 0; i < n; i++ {
		c := mix(0x9e3779b97f4a7c15, uint64(d.Graph.Ops[i].Kind))
		if baseline != nil {
			c = mix(c, uint64(baseline[i].X)<<16|uint64(baseline[i].Y))
		}
		colors[i] = c
	}
	// Fabric shape and timing constants participate via a global salt:
	// instances on different fabrics must not share color histories.
	salt := fnv.New64a()
	binary.Write(salt, binary.LittleEndian, int64(d.Fabric.W))
	binary.Write(salt, binary.LittleEndian, int64(d.Fabric.H))
	binary.Write(salt, binary.LittleEndian, int64(d.NumContexts))
	binary.Write(salt, binary.LittleEndian, d.ClockPeriodNs)
	binary.Write(salt, binary.LittleEndian, d.UnitWireDelayNs)
	s := salt.Sum64()
	for i := range colors {
		colors[i] = mix(colors[i], s)
	}

	prev := countColors(colors)
	for round := 0; round < n+1; round++ {
		// Context signatures: the multiset of colors per context, so
		// context membership (capacity coupling) refines op colors even
		// across edge-disconnected components.
		ctxSig := make([]uint64, d.NumContexts)
		perCtx := make([][]uint64, d.NumContexts)
		for i := 0; i < n; i++ {
			perCtx[d.Ctx[i]] = append(perCtx[d.Ctx[i]], colors[i])
		}
		for c := range perCtx {
			ctxSig[c] = hashMultiset(0x517cc1b727220a95, perCtx[c])
		}
		next := make([]uint64, n)
		for i := 0; i < n; i++ {
			next[i] = mix(colors[i], ctxSig[d.Ctx[i]])
		}
		next = refineEdges(d, next, 1)
		colors = next
		if c := countColors(colors); c == prev || c == n {
			break
		} else {
			prev = c
		}
	}
	return colors
}

// refineEdges folds rounds of edge-neighborhood structure into colors:
// each op absorbs the sorted multisets of (role, neighbor color) over
// its in- and out-edges, with chained and registered edges kept
// distinct.
func refineEdges(d *arch.Design, colors []uint64, rounds int) []uint64 {
	n := len(colors)
	for r := 0; r < rounds; r++ {
		in := make([][]uint64, n)
		out := make([][]uint64, n)
		for _, e := range d.Graph.Edges {
			role := uint64(roleRegistered)
			if d.Ctx[e.From] == d.Ctx[e.To] {
				role = roleChained
			}
			out[e.From] = append(out[e.From], mix(role, colors[e.To]))
			in[e.To] = append(in[e.To], mix(role, colors[e.From]))
		}
		next := make([]uint64, n)
		for i := 0; i < n; i++ {
			h := mix(colors[i], 0x2545f4914f6cdd1d)
			h = mix(h, hashMultiset(0x6c62272e07bb0142, in[i]))
			h = mix(h, hashMultiset(0x27d4eb2f165667c5, out[i]))
			next[i] = h
		}
		colors = next
	}
	return colors
}

// orderContexts returns the canonical context permutation: a linear
// extension of the context-precedence DAG (any design edge crossing
// contexts forces producer-context before consumer-context, keeping
// Ctx[From] <= Ctx[To] valid after renumbering), with ready contexts
// chosen by signature so isomorphic submissions make identical picks.
func orderContexts(d *arch.Design, colors []uint64) []int {
	numCtx := d.NumContexts
	sig := make([]uint64, numCtx)
	perCtx := make([][]uint64, numCtx)
	for i := 0; i < d.NumOps(); i++ {
		perCtx[d.Ctx[i]] = append(perCtx[d.Ctx[i]], colors[i])
	}
	for c := 0; c < numCtx; c++ {
		sig[c] = hashMultiset(0x100000001b3, perCtx[c])
	}

	succ := make([]map[int]bool, numCtx)
	indeg := make([]int, numCtx)
	for i := range succ {
		succ[i] = make(map[int]bool)
	}
	for _, e := range d.Graph.Edges {
		a, b := d.Ctx[e.From], d.Ctx[e.To]
		if a != b && !succ[a][b] {
			succ[a][b] = true
			indeg[b]++
		}
	}
	perm := make([]int, numCtx)
	placed := 0
	ready := make([]int, 0, numCtx)
	for c := 0; c < numCtx; c++ {
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			a, b := ready[i], ready[best]
			if sig[a] < sig[b] || (sig[a] == sig[b] && a < b) {
				best = i
			}
		}
		c := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		perm[c] = placed
		placed++
		for s := range succ[c] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	// The precedence relation is a sub-order of the original context
	// order, so it is always acyclic and every context gets placed.
	return perm
}

func countColors(colors []uint64) int {
	seen := make(map[uint64]bool, len(colors))
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}

// hashMultiset hashes an order-insensitive collection by sorting a
// private copy first.
func hashMultiset(seed uint64, vals []uint64) uint64 {
	s := append([]uint64(nil), vals...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	h := seed
	for _, v := range s {
		h = mix(h, v)
	}
	return h
}

// mix combines two 64-bit values with an fnv-style avalanche. WL color
// collisions are harmless — they can only merge classes and cost cache
// hits, never correctness — so a fast non-cryptographic mix suffices.
func mix(a, b uint64) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], a)
	binary.LittleEndian.PutUint64(buf[8:], b)
	h.Write(buf[:])
	return h.Sum64()
}
