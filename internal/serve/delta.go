package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"

	"agingfp/internal/arch"
	"agingfp/internal/canon"
	"agingfp/internal/core"
	"agingfp/internal/lp"
	"agingfp/internal/place"
)

// ErrBaseNotReady rejects a delta submission whose base job has not
// finished successfully (409): a queued, running, failed, or canceled
// base has no trustworthy artifacts to seed from.
var ErrBaseNotReady = errors.New("serve: delta base job not finished")

// DeltaRequest is the POST /v1/jobs/{id}/delta payload: the full
// modified design (not a patch — the server diffs it against the base
// job's stored document) plus optional solver-option overrides. Unset
// options inherit the base job's resolved values, so a bare
// {"design": ...} re-solves under the same mode, seed, and time limit
// the base ran with.
//
// The diff contract is position-stable: op i of the delta document is
// understood to be op i of the base document (possibly with a changed
// kind, context, or edges), and new ops are appended after the base's.
// Reorderings read as remove+add and force a cold fallback.
type DeltaRequest struct {
	Design      *arch.Document `json:"design"`
	Mode        string         `json:"mode,omitempty"`
	Seed        int64          `json:"seed,omitempty"`
	TimeLimitMs int64          `json:"time_limit_ms,omitempty"`
	DeadlineMs  int64          `json:"deadline_ms,omitempty"`
	// Tenant is the accounting identity (see JobRequest.Tenant); a delta
	// job is attributed to its own submitter, not the base job's.
	Tenant string `json:"tenant,omitempty"`
}

// DeltaDiff summarizes how a delta design differs from its base. It is
// computed in the clients' shared numbering (the position-stable
// contract) and drives the warm-vs-cold decision.
type DeltaDiff struct {
	OpsAdded        int  `json:"ops_added"`
	OpsRemoved      int  `json:"ops_removed"`
	OpsModified     int  `json:"ops_modified"`
	EdgesAdded      int  `json:"edges_added"`
	EdgesRemoved    int  `json:"edges_removed"`
	ContextsAdded   int  `json:"contexts_added"`
	ContextsRemoved int  `json:"contexts_removed"`
	FabricChanged   bool `json:"fabric_changed"`
}

// computeDiff diffs two design documents under the position-stable
// contract. Fabric covers everything that reshapes the solve space
// globally: dimensions, clock period, and wire delay.
func computeDiff(base, next *arch.Document) DeltaDiff {
	var d DeltaDiff
	d.FabricChanged = base.FabricW != next.FabricW || base.FabricH != next.FabricH ||
		base.ClockPeriodNs != next.ClockPeriodNs || base.UnitWireDelayNs != next.UnitWireDelayNs
	if len(next.Ops) >= len(base.Ops) {
		d.OpsAdded = len(next.Ops) - len(base.Ops)
	} else {
		d.OpsRemoved = len(base.Ops) - len(next.Ops)
	}
	for i := 0; i < len(base.Ops) && i < len(next.Ops); i++ {
		if base.Ops[i].Kind != next.Ops[i].Kind || base.Ops[i].Ctx != next.Ops[i].Ctx {
			d.OpsModified++
		}
	}
	if next.NumContexts >= base.NumContexts {
		d.ContextsAdded = next.NumContexts - base.NumContexts
	} else {
		d.ContextsRemoved = base.NumContexts - next.NumContexts
	}
	baseEdges := make(map[[2]int]int, len(base.Edges))
	for _, e := range base.Edges {
		baseEdges[e]++
	}
	for _, e := range next.Edges {
		if baseEdges[e] > 0 {
			baseEdges[e]--
		} else {
			d.EdgesAdded++
		}
	}
	for _, n := range baseEdges {
		d.EdgesRemoved += n
	}
	return d
}

// deltaPlan is the prepared solve for one delta job: the instance to
// run (in the base's solved numbering when seeding, the client's own
// when falling back cold), the permutations to render results back
// through, and the prior to seed from (nil = cold).
type deltaPlan struct {
	design   *arch.Design
	m0       arch.Mapping
	opPerm   []int // delta-client index -> solved index; nil = identity
	ctxPerm  []int
	prior    *core.Prior
	fallback string // non-empty names the cold-fallback reason
	diff     DeltaDiff
}

// Cold-fallback reasons, surfaced verbatim in the job snapshot's
// delta_fallback field so the response says why the seed was discarded.
const (
	fallbackNoArtifacts     = "base_artifacts_unavailable"
	fallbackFabricChanged   = "fabric_changed"
	fallbackOpsRemoved      = "ops_removed"
	fallbackContextsRemoved = "contexts_removed"
	fallbackTooLarge        = "delta_too_large"
	fallbackAlignment       = "alignment_invalid"
)

// coldPlan prepares a from-scratch solve of the delta design in its own
// numbering — the fallback when the base's artifacts cannot seed it.
func coldPlan(ctx context.Context, doc *arch.Document, reason string, diff DeltaDiff) (*deltaPlan, error) {
	d, mappings, err := arch.FromDocument(doc)
	if err != nil {
		return nil, badRequest("serve: bad design: %v", err)
	}
	m0 := mappings[canon.BaselineMapping]
	if m0 == nil {
		m0, err = place.PlaceContext(ctx, d, place.DefaultConfig())
		if err != nil {
			return nil, err
		}
	}
	return &deltaPlan{design: d, m0: m0, fallback: reason, diff: diff}, nil
}

// planDelta decides warm vs cold for one delta job and prepares the
// instance. Warm seeding requires the base's artifacts, an unchanged
// fabric, no removals, and a delta small enough (< half the base's
// ops changed or added) that the prior plausibly still helps; anything
// that breaks the numbering alignment demotes to cold with a reason
// instead of failing.
func (s *Server) planDelta(ctx context.Context, j *job) (*deltaPlan, error) {
	doc := j.req.Design
	art := j.baseArtifacts
	if art == nil || art.clientDoc == nil {
		return coldPlan(ctx, doc, fallbackNoArtifacts, DeltaDiff{})
	}
	diff := computeDiff(art.clientDoc, doc)
	switch {
	case diff.FabricChanged:
		return coldPlan(ctx, doc, fallbackFabricChanged, diff)
	case diff.OpsRemoved > 0:
		return coldPlan(ctx, doc, fallbackOpsRemoved, diff)
	case diff.ContextsRemoved > 0:
		return coldPlan(ctx, doc, fallbackContextsRemoved, diff)
	case 2*(diff.OpsModified+diff.OpsAdded) > len(art.clientDoc.Ops):
		return coldPlan(ctx, doc, fallbackTooLarge, diff)
	}

	plan, ok := s.alignDelta(doc, art, diff)
	if !ok {
		return coldPlan(ctx, doc, fallbackAlignment, diff)
	}
	return plan, nil
}

// alignDelta renumbers the delta design with the base's permutations
// (identity-extended over appended ops and contexts), so the solved
// instance's op indices line up with the base's frozen rotations and
// the LP shapes its basis snapshots expect. Returns ok=false whenever
// the renumbered instance fails validation — the caller demotes to a
// cold solve rather than guessing.
func (s *Server) alignDelta(doc *arch.Document, art *solveArtifacts, diff DeltaDiff) (*deltaPlan, bool) {
	n := len(doc.Ops)
	nBase := len(art.clientDoc.Ops)
	if art.opPerm != nil && len(art.opPerm) != nBase {
		return nil, false
	}
	opPerm := identityPerm(n)
	copy(opPerm, art.opPerm)
	ctxPerm := identityPerm(doc.NumContexts)
	copy(ctxPerm, art.ctxPerm)

	ops2 := make([]arch.DocOp, n)
	for i, op := range doc.Ops {
		if op.Ctx < 0 || op.Ctx >= len(ctxPerm) || opPerm[i] >= n {
			return nil, false
		}
		ops2[opPerm[i]] = arch.DocOp{Kind: op.Kind, Ctx: ctxPerm[op.Ctx]}
	}
	edges2 := make([][2]int, len(doc.Edges))
	for k, e := range doc.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, false
		}
		edges2[k] = [2]int{opPerm[e[0]], opPerm[e[1]]}
	}
	sort.Slice(edges2, func(a, b int) bool {
		if edges2[a][0] != edges2[b][0] {
			return edges2[a][0] < edges2[b][0]
		}
		return edges2[a][1] < edges2[b][1]
	})
	doc2 := &arch.Document{
		Name:            doc.Name,
		FabricW:         doc.FabricW,
		FabricH:         doc.FabricH,
		NumContexts:     doc.NumContexts,
		ClockPeriodNs:   doc.ClockPeriodNs,
		UnitWireDelayNs: doc.UnitWireDelayNs,
		Ops:             ops2,
		Edges:           edges2,
	}
	d2, _, err := arch.FromDocument(doc2)
	if err != nil {
		// The base's context order no longer linearizes the delta's
		// precedence constraints (or some other invariant broke).
		return nil, false
	}

	m0, ok := alignBaseline(doc, d2, art, opPerm, n, nBase)
	if !ok {
		return nil, false
	}

	bases := make([]*lp.Basis, len(art.bases))
	for i, enc := range art.bases {
		if enc == nil {
			continue
		}
		if b, err := lp.UnmarshalBasis(enc); err == nil {
			bases[i] = b
		}
	}
	prior := &core.Prior{
		Frozen:   art.frozen,
		STTarget: art.stTarget,
		Bases:    bases,
		// The base's solved floorplan is already in the aligned (solved)
		// numbering; when the delta appended ops the length mismatch
		// makes the core reject it during validation, which is the
		// intended fallback.
		Mapping: art.solved,
	}
	return &deltaPlan{design: d2, m0: m0, opPerm: opPerm, ctxPerm: ctxPerm, prior: prior, diff: diff}, true
}

// alignBaseline builds the starting floorplan for the aligned delta
// instance. A baseline mapping in the delta document wins (translated
// into the solved numbering); otherwise the base's solved baseline is
// reused and appended ops are greedily placed on free PEs of their
// context.
func alignBaseline(doc *arch.Document, d2 *arch.Design, art *solveArtifacts, opPerm []int, n, nBase int) (arch.Mapping, bool) {
	if raw, ok := doc.Mappings[canon.BaselineMapping]; ok {
		m0 := make(arch.Mapping, n)
		if len(raw) != n {
			return nil, false
		}
		for i, xy := range raw {
			m0[opPerm[i]] = arch.Coord{X: xy[0], Y: xy[1]}
		}
		if err := arch.ValidateMapping(d2, m0); err != nil {
			return nil, false
		}
		return m0, true
	}
	if len(art.baseline) != nBase {
		return nil, false
	}
	m0 := make(arch.Mapping, n)
	copy(m0, art.baseline)
	used := make(map[[3]int]bool, n)
	for i := 0; i < nBase; i++ {
		used[[3]int{d2.Ctx[i], m0[i].X, m0[i].Y}] = true
	}
	for i := nBase; i < n; i++ {
		placed := false
		for y := 0; y < d2.Fabric.H && !placed; y++ {
			for x := 0; x < d2.Fabric.W && !placed; x++ {
				key := [3]int{d2.Ctx[i], x, y}
				if !used[key] {
					used[key] = true
					m0[i] = arch.Coord{X: x, Y: y}
					placed = true
				}
			}
		}
		if !placed {
			return nil, false
		}
	}
	if err := arch.ValidateMapping(d2, m0); err != nil {
		return nil, false
	}
	return m0, true
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// executeDelta runs one delta job: plan (warm or cold), solve, render
// in the delta client's numbering, and export fresh artifacts so delta
// jobs can chain.
func (s *Server) executeDelta(ctx context.Context, j *job) (*execOut, *solveInfo, error) {
	plan, err := s.planDelta(ctx, j)
	if err != nil {
		return nil, nil, err
	}
	info := &solveInfo{ops: plan.design.NumOps(), contexts: plan.design.NumContexts}
	opts, err := s.options(j)
	if err != nil {
		return nil, info, err
	}
	cr, res, err := s.solveInstance(ctx, plan.design, plan.m0, opts, plan.prior, info)
	if err != nil {
		return nil, info, err
	}
	out, err := renderResult(j.req.Design.Name, plan.opPerm, cr)
	if err != nil {
		return nil, info, err
	}
	return &execOut{
		result:    out,
		cres:      cr,
		artifacts: packArtifacts(j.req.Design, plan.opPerm, plan.ctxPerm, plan.m0, res, opts),
		fallback:  plan.fallback,
		reuse:     res.Resume,
	}, info, nil
}

// SubmitDelta validates and enqueues an incremental re-solve against a
// finished base job. Unset solver options inherit the base's resolved
// values. Delta jobs bypass both cache tiers on purpose — their whole
// point is to run the solver from a better starting point, and whether
// the seed survived is reported per job (snapshot delta_fallback /
// reuse), not guessed from cache state.
func (s *Server) SubmitDelta(baseID string, req *DeltaRequest) (Snapshot, error) {
	tenant, err := resolveTenant(req.Tenant)
	if err != nil {
		return Snapshot{}, err
	}
	if req.Design == nil {
		return Snapshot{}, badRequest("serve: delta request needs a design")
	}
	if _, _, err := arch.FromDocument(req.Design); err != nil {
		return Snapshot{}, badRequest("serve: bad design: %v", err)
	}

	base := s.lookup(baseID)
	if base == nil {
		return Snapshot{}, ErrNotFound
	}
	base.mu.Lock()
	baseState := base.state
	art := base.artifacts
	base.mu.Unlock()
	if baseState != StateDone {
		return Snapshot{}, fmt.Errorf("%w: job %s is %s", ErrBaseNotReady, baseID, baseState)
	}

	jr := &JobRequest{
		Design:      req.Design,
		Mode:        req.Mode,
		Seed:        req.Seed,
		TimeLimitMs: req.TimeLimitMs,
		DeadlineMs:  req.DeadlineMs,
	}
	if art != nil {
		if jr.Mode == "" {
			jr.Mode = art.mode
		}
		if jr.Seed == 0 {
			jr.Seed = art.seed
		}
		if jr.TimeLimitMs == 0 {
			jr.TimeLimitMs = art.timeLimit
		}
	}
	if _, err := jr.options(); err != nil {
		return Snapshot{}, err
	}
	return s.admit(&job{
		tenant:        tenant,
		req:           jr,
		solveKind:     solveKindDelta,
		baseID:        baseID,
		delta:         req,
		baseArtifacts: art,
	}, nil, slog.String("base_job", baseID))
}
