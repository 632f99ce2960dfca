package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/canon"
)

// servePassColds is how many cold designs one closed-loop serve-mix
// pass submits; each brings one delta and six resubmits.
var servePassColds = 24

// passPlan builds one closed-loop serve-mix pass. For each design of the
// corpus, in its order: the cold submit, then in a seeded order its
// delta and three exact and three semantic resubmits, each resubmit of
// one of the recentBases most recent cold designs (drawn from seed).
// Every base is answered before its dependents are sent, so no request
// waits for another.
func passPlan(seed int64, corpus []*instance) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	docs := map[*request]*derived{}
	var colds, plan []*request
	for _, in := range corpus {
		c := &request{kind: kindCold, inst: in}
		colds = append(colds, c)
		recent := colds[max(0, len(colds)-recentBases):]
		deps := []*request{{kind: kindDelta, base: c}}
		for i := 0; i < 3; i++ {
			deps = append(deps,
				&request{kind: kindExact, base: recent[rng.Intn(len(recent))]},
				&request{kind: kindSemantic, base: recent[rng.Intn(len(recent))]})
		}
		rng.Shuffle(len(deps), func(a, b int) { deps[a], deps[b] = deps[b], deps[a] })
		for _, r := range deps {
			if err := fillDependent(r, rng, docs); err != nil {
				return nil, err
			}
		}
		plan = append(append(plan, c), deps...)
	}
	return plan, nil
}

// clonePlan copies a plan's requests without their outcomes, so each
// pass sends the same documents and records its own answers. Every
// base must precede its dependents in plan.
func clonePlan(plan []*request) []*request {
	index := map[*request]int{}
	out := make([]*request, len(plan))
	for i, r := range plan {
		index[r] = i
		out[i] = &request{due: r.due, kind: r.kind, inst: r.inst, perm: r.perm}
		if r.base != nil {
			out[i].base = out[index[r.base]]
		}
	}
	return out
}

// Open-loop request plan, run by serve-mix's traced run for the
// service's queueing metrics. At this rate the server's two solver
// workers were busy 22 to 36 % of the time at the commit that
// introduced the benchmark; see README.md.
const (
	mixRate = 24.0 // requests per second, Poisson
	// probeSeconds is the open-loop schedule's length (less when the run
	// is shorter).
	probeSeconds = 20
	// A resubmit or delta refers to a cold job due at least baseGap
	// earlier (or a warm-up job). Resubmits draw from the recentBases
	// most recent such jobs: a working set well inside the server's
	// 64-entry result cache.
	baseGap     = 3 * time.Second
	recentBases = 16
	// scheduleSeed draws the arrival times and request kinds, the same
	// for every run: drawn per seed, their queueing coincidences and the
	// cold jobs they left old enough for a delta moved the solver
	// requests' latency by a quarter from seed to seed. This draw puts
	// 39, 41 and 40 cold and delta requests in the thirds of the 20 s
	// probe, so serve.backlog_growth reads the server rather than the
	// draw.
	scheduleSeed = 22
)

// mixCounts splits n requests into the serve-mix shares: 1/8 cold
// submits, 1/8 deltas, 3/8 exact and 3/8 semantic resubmits.
func mixCounts(n int) (cold, delta, exact, semantic int) {
	cold, delta, exact = n/8, n/8, 3*n/8
	return cold, delta, exact, n - cold - delta - exact
}

// serveMixPlan builds the open-loop plan for one run. The schedule,
// arrival times (a Poisson process conditioned on its count, i.e.
// sorted uniform times) and request kinds in their exact shares, comes
// from scheduleSeed; each resubmit's base and each design's one
// renumbering come from seed. The cold corpus is submitted in its own
// order and a delta goes to the eligible base with the fewest deltas so
// far, so every seed solves the same designs and edits at the same
// times. corpus must hold exactly the run's cold designs.
func serveMixPlan(seed int64, seconds float64, corpus []*instance, warm []*request) ([]*request, error) {
	n := int(math.Round(mixRate * seconds))
	nCold, nDelta, nExact, nSem := mixCounts(n)
	if nCold != len(corpus) {
		return nil, fmt.Errorf("plan needs %d cold designs, corpus has %d", nCold, len(corpus))
	}
	sched := rand.New(rand.NewSource(scheduleSeed))
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(sched.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	kinds := make([]reqKind, 0, n)
	for k, c := range []int{nCold, nDelta, nExact, nSem} {
		for i := 0; i < c; i++ {
			kinds = append(kinds, reqKind(k))
		}
	}
	sched.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	rng := rand.New(rand.NewSource(seed))

	docs := map[*request]*derived{}
	var colds, plan []*request
	deltas := map[*request]int{} // deltas drawn per base so far
	eligible := 0                // colds[:eligible] fell due at least baseGap ago
	for i, t := range times {
		r := &request{due: t, kind: kinds[i]}
		if r.kind == kindCold {
			r.inst = corpus[len(colds)]
			colds = append(colds, r)
			plan = append(plan, r)
			continue
		}
		for eligible < len(colds) && colds[eligible].due <= t-baseGap {
			eligible++
		}
		cands := append(append([]*request(nil), warm...), colds[:eligible]...)
		if r.kind == kindDelta {
			// Every base gets its delta before any gets a second, so
			// each run re-solves nearly the same set of edits.
			r.base = cands[0]
			for _, c := range cands[1:] {
				if deltas[c] < deltas[r.base] {
					r.base = c
				}
			}
			deltas[r.base]++
		} else {
			if len(cands) > recentBases {
				cands = cands[len(cands)-recentBases:]
			}
			r.base = cands[rng.Intn(len(cands))]
		}
		if err := fillDependent(r, rng, docs); err != nil {
			return nil, err
		}
		plan = append(plan, r)
	}
	return plan, nil
}

// probePlan is the service probe of the table workloads' traced runs:
// each instance once cold, then resubmitted exactly and renumbered and
// edited once, all due at once (each dependent waits for its base).
func probePlan(seed int64, insts []*instance) ([]*request, error) {
	rng := rand.New(rand.NewSource(seed))
	var colds, deps []*request
	docs := map[*request]*derived{}
	for _, in := range insts {
		c := &request{kind: kindCold, inst: in}
		colds = append(colds, c)
		for _, k := range []reqKind{kindExact, kindSemantic, kindDelta} {
			r := &request{kind: k, base: c}
			if err := fillDependent(r, rng, docs); err != nil {
				return nil, err
			}
			deps = append(deps, r)
		}
	}
	return append(colds, deps...), nil
}

// derived holds the documents a cold job's dependents send: its one
// renumbered copy (semantic resubmits) and its one edited copy
// (deltas).
type derived struct {
	renumbered *instance
	perm       []int
	edited     *instance
}

// fillDependent sets the document a resubmit or delta of r.base sends.
// A design keeps one renumbering, drawn from rng, for all its semantic
// resubmits, and one edit for all its deltas.
func fillDependent(r *request, rng *rand.Rand, docs map[*request]*derived) error {
	dv := docs[r.base]
	if dv == nil {
		dv = &derived{}
		docs[r.base] = dv
	}
	var err error
	switch r.kind {
	case kindExact:
		r.inst = r.base.inst
	case kindSemantic:
		if dv.renumbered == nil {
			dv.perm = notIdentityPerm(rng, r.base.inst.d.NumOps())
			if dv.renumbered, err = r.base.inst.renumbered(dv.perm); err != nil {
				return err
			}
		}
		r.inst, r.perm = dv.renumbered, dv.perm
	case kindDelta:
		if dv.edited == nil {
			if dv.edited, err = deltaEdit(r.base.inst); err != nil {
				return err
			}
		}
		r.inst = dv.edited
	}
	return nil
}

// deltaEdit returns in with its one edit, in the delta API's
// position-stable numbering: either one op's kind flipped (ALU <-> DMU)
// or one op appended to a context with a free PE, fed by an earlier op
// and placed on a free PE of its context in the baseline. The edit is
// drawn from the design's own generator seed, not the run's, so every
// run sends the same delta of a design and the corpus screening
// (screen.go) judged exactly these edits.
func deltaEdit(in *instance) (*instance, error) {
	rng := rand.New(rand.NewSource(in.spec.Seed))
	doc := cloneDoc(in.doc)
	doc.Name = in.name + "-delta"
	if rng.Intn(2) == 0 {
		i := rng.Intn(len(doc.Ops))
		doc.Ops[i].Kind = 1 - doc.Ops[i].Kind
	} else if err := appendOp(doc, in, rng); err != nil {
		return nil, err
	}
	d, maps, err := arch.FromDocument(doc)
	if err != nil {
		return nil, fmt.Errorf("delta of %s: %w", in.name, err)
	}
	return &instance{name: doc.Name, spec: in.spec, doc: doc, d: d, m0: maps[canon.BaselineMapping]}, nil
}

func appendOp(doc *arch.Document, in *instance, rng *rand.Rand) error {
	f := in.d.Fabric
	var open []int
	for c := 0; c < in.d.NumContexts; c++ {
		if len(in.d.ContextOps(c)) < f.NumPEs() {
			open = append(open, c)
		}
	}
	if len(open) == 0 {
		return fmt.Errorf("delta of %s: no context has a free PE", in.name)
	}
	c := open[rng.Intn(len(open))]
	var producers []int
	for op, oc := range in.d.Ctx {
		if oc <= c {
			producers = append(producers, op)
		}
	}
	used := map[arch.Coord]bool{}
	for _, op := range in.d.ContextOps(c) {
		used[in.m0[op]] = true
	}
	var free []arch.Coord
	for i := 0; i < f.NumPEs(); i++ {
		if pe := f.CoordOf(i); !used[pe] {
			free = append(free, pe)
		}
	}
	pe := free[rng.Intn(len(free))]
	n := len(doc.Ops)
	doc.Ops = append(doc.Ops, arch.DocOp{Kind: rng.Intn(2), Name: fmt.Sprintf("delta_%d", n), Ctx: c})
	doc.Edges = append(doc.Edges, [2]int{producers[rng.Intn(len(producers))], n})
	doc.Mappings[canon.BaselineMapping] = append(doc.Mappings[canon.BaselineMapping], [2]int{pe.X, pe.Y})
	return nil
}

func cloneDoc(doc *arch.Document) *arch.Document {
	out := *doc
	out.Ops = append([]arch.DocOp(nil), doc.Ops...)
	out.Edges = append([][2]int(nil), doc.Edges...)
	out.Mappings = map[string][][2]int{}
	for k, v := range doc.Mappings {
		out.Mappings[k] = append([][2]int(nil), v...)
	}
	return &out
}
