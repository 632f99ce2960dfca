package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/place"
	"agingfp/internal/serve"
	"agingfp/internal/serve/client"
)

// designDoc synthesizes a small design and packages it as a document
// with a baseline mapping — the shape a real client submits.
func designDoc(t testing.TB, name string, totalOps, contexts, w, h int, seed int64) *arch.Document {
	t.Helper()
	d, err := bench.Synthesize(bench.Spec{
		Name: name, Contexts: contexts, Fabric: arch.Fabric{W: w, H: h},
		TotalOps: totalOps, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return arch.ToDocument(d, map[string]arch.Mapping{"baseline": m0})
}

// renumberDoc applies an op permutation (new index = perm[old index])
// and a cosmetic rename — the structurally-equal-but-byte-different
// resubmission the semantic cache tier exists for.
func renumberDoc(t *testing.T, doc *arch.Document, perm []int) *arch.Document {
	t.Helper()
	if len(perm) != len(doc.Ops) {
		t.Fatalf("perm length %d, ops %d", len(perm), len(doc.Ops))
	}
	out := &arch.Document{
		Name:            doc.Name + "-renumbered",
		FabricW:         doc.FabricW,
		FabricH:         doc.FabricH,
		NumContexts:     doc.NumContexts,
		ClockPeriodNs:   doc.ClockPeriodNs,
		UnitWireDelayNs: doc.UnitWireDelayNs,
	}
	out.Ops = make([]arch.DocOp, len(doc.Ops))
	for i, op := range doc.Ops {
		out.Ops[perm[i]] = op
	}
	out.Edges = make([][2]int, len(doc.Edges))
	for k, e := range doc.Edges {
		out.Edges[k] = [2]int{perm[e[0]], perm[e[1]]}
	}
	if doc.Mappings != nil {
		out.Mappings = make(map[string][][2]int, len(doc.Mappings))
		for name, m := range doc.Mappings {
			m2 := make([][2]int, len(m))
			for i, xy := range m {
				m2[perm[i]] = xy
			}
			out.Mappings[name] = m2
		}
	}
	return out
}

func reversePerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

// copyDoc deep-copies a document through its JSON form.
func copyDoc(t *testing.T, doc *arch.Document) *arch.Document {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out arch.Document
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestSemanticCacheHit is the tentpole's first acceptance test: a
// renumbered-but-isomorphic resubmission must be answered from the
// semantic tier with zero solver work, and the served bytes must equal
// what a cold solve of that same renumbered document produces on a
// fresh server.
func TestSemanticCacheHit(t *testing.T) {
	doc := designDoc(t, "sem-e2e", 10, 3, 3, 3, 7)
	renumbered := renumberDoc(t, doc, reversePerm(len(doc.Ops)))
	ctx := context.Background()

	_, hs, reg := testServer(t, serve.Config{Workers: 1})
	cl := testClient(hs)

	first, err := cl.Submit(ctx, &serve.JobRequest{Design: doc})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hs, first.ID, serve.StateDone, 60*time.Second)

	second, err := cl.Submit(ctx, &serve.JobRequest{Design: renumbered})
	if err != nil {
		t.Fatal(err)
	}
	if second.State != serve.StateDone {
		t.Fatalf("semantic hit not served instantly: state %q", second.State)
	}
	if second.SolveKind != "semantic_hit" {
		t.Fatalf("solve_kind %q, want semantic_hit", second.SolveKind)
	}
	if got := reg.Counter(`agingfp_cache_semantic_hits_total`).Value(); got != 1 {
		t.Fatalf("semantic hits = %d, want 1", got)
	}
	if got := reg.Counter(`agingfp_serve_cache_tier_hits_total{tier="semantic"}`).Value(); got != 1 {
		t.Fatalf("semantic tier hits = %d, want 1", got)
	}
	if got := reg.Counter(`agingfp_serve_cache_hits_total`).Value(); got != 0 {
		t.Fatalf("exact hits = %d, want 0 (the bytes differ)", got)
	}

	semBytes, _, err := cl.Result(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identity: a fresh server cold-solving the renumbered doc
	// must produce exactly the bytes the semantic replay served.
	_, hs2, _ := testServer(t, serve.Config{Workers: 1})
	cl2 := testClient(hs2)
	cold, err := cl2.Submit(ctx, &serve.JobRequest{Design: renumbered})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hs2, cold.ID, serve.StateDone, 60*time.Second)
	coldBytes, _, err := cl2.Result(ctx, cold.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(semBytes, coldBytes) {
		t.Fatalf("semantic replay differs from cold solve:\n%s\nvs\n%s", semBytes, coldBytes)
	}

	// Resubmitting the renumbered doc a second time is now an exact hit
	// (the semantic hit promoted it), not another semantic one.
	third, err := cl.Submit(ctx, &serve.JobRequest{Design: renumbered})
	if err != nil {
		t.Fatal(err)
	}
	if third.State != serve.StateDone || third.SolveKind != "exact_hit" {
		t.Fatalf("promoted resubmission: state %q solve_kind %q", third.State, third.SolveKind)
	}
}

// TestDeltaWarmBeatsCold is the tentpole's second acceptance test: a
// one-op delta re-solve seeded from the base job must complete with
// measurably fewer simplex iterations than a cold solve of the same
// mutated design.
func TestDeltaWarmBeatsCold(t *testing.T) {
	doc := designDoc(t, "delta-e2e", 24, 4, 4, 4, 9)
	ctx := context.Background()

	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	cl := testClient(hs)

	base, err := cl.Submit(ctx, &serve.JobRequest{Design: doc, Mode: "freeze"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hs, base.ID, serve.StateDone, 120*time.Second)

	mutated := copyDoc(t, doc)
	mutated.Ops[0].Kind = 1 - mutated.Ops[0].Kind

	delta, err := cl.Delta(ctx, base.ID, &serve.DeltaRequest{Design: mutated})
	if err != nil {
		t.Fatal(err)
	}
	if delta.SolveKind != "delta" || delta.BaseJob != base.ID {
		t.Fatalf("delta snapshot: %+v", delta)
	}
	final := waitState(t, hs, delta.ID, serve.StateDone, 120*time.Second)
	if final.DeltaFallback != "" {
		t.Fatalf("one-op delta fell back cold: %q", final.DeltaFallback)
	}
	if final.Reuse == nil {
		t.Fatal("seeded delta reported no reuse info")
	}
	_, warmRes, err := cl.Result(ctx, delta.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Cold comparator: the same mutated design solved from scratch on a
	// fresh server under identical options.
	_, hs2, _ := testServer(t, serve.Config{Workers: 1})
	cl2 := testClient(hs2)
	cold, err := cl2.Submit(ctx, &serve.JobRequest{Design: mutated, Mode: "freeze"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hs2, cold.ID, serve.StateDone, 120*time.Second)
	_, coldRes, err := cl2.Result(ctx, cold.ID)
	if err != nil {
		t.Fatal(err)
	}

	if warmRes.Stats.SimplexIters >= coldRes.Stats.SimplexIters {
		t.Fatalf("warm delta used %d simplex iters, cold solve %d — seeding bought nothing",
			warmRes.Stats.SimplexIters, coldRes.Stats.SimplexIters)
	}
	if warmRes.Stats.STProbes > coldRes.Stats.STProbes {
		t.Fatalf("warm delta used %d ST probes, cold solve %d",
			warmRes.Stats.STProbes, coldRes.Stats.STProbes)
	}
	if warmRes.Status != "feasible" && warmRes.Status != "optimal" {
		t.Fatalf("warm delta status %q", warmRes.Status)
	}
}

// TestDeltaFallbackReasons: deltas that invalidate the base's
// artifacts must still solve — cold — and say why.
func TestDeltaFallback(t *testing.T) {
	doc := designDoc(t, "fallback-e2e", 10, 3, 3, 3, 11)
	ctx := context.Background()

	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	cl := testClient(hs)
	base, err := cl.Submit(ctx, &serve.JobRequest{Design: doc})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hs, base.ID, serve.StateDone, 60*time.Second)

	// Removing an op breaks the position-stable alignment.
	smaller := copyDoc(t, doc)
	last := len(smaller.Ops) - 1
	smaller.Ops = smaller.Ops[:last]
	kept := smaller.Edges[:0]
	for _, e := range smaller.Edges {
		if e[0] != last && e[1] != last {
			kept = append(kept, e)
		}
	}
	smaller.Edges = kept
	for name, m := range smaller.Mappings {
		smaller.Mappings[name] = m[:last]
	}

	delta, err := cl.Delta(ctx, base.ID, &serve.DeltaRequest{Design: smaller})
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, hs, delta.ID, serve.StateDone, 60*time.Second)
	if final.DeltaFallback != "ops_removed" {
		t.Fatalf("delta_fallback %q, want ops_removed", final.DeltaFallback)
	}
	if _, res, err := cl.Result(ctx, delta.ID); err != nil {
		t.Fatal(err)
	} else if len(res.Mapping) != last {
		t.Fatalf("fallback result has %d mapping entries, want %d", len(res.Mapping), last)
	}
}

// TestDeltaBaseValidation: deltas against missing or unfinished base
// jobs are typed rejections, not queued work.
func TestDeltaBaseValidation(t *testing.T) {
	ctx := context.Background()
	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	cl := testClient(hs)
	doc := designDoc(t, "basecheck-e2e", 8, 2, 3, 3, 13)

	if _, err := cl.Delta(ctx, "job-999999", &serve.DeltaRequest{Design: doc}); err == nil {
		t.Fatal("delta against unknown base: want error")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown base error: %v", err)
	}

	slow, code := postJob(t, hs, slowDocument())
	if code != http.StatusAccepted {
		t.Fatalf("slow submit: HTTP %d", code)
	}
	if _, err := cl.Delta(ctx, slow.ID, &serve.DeltaRequest{Design: doc}); err == nil {
		t.Fatal("delta against unfinished base: want error")
	} else if apiErr, ok := err.(*client.APIError); !ok ||
		apiErr.Status != http.StatusConflict || apiErr.Code != serve.CodeBaseNotReady {
		t.Fatalf("unfinished base error: %v", err)
	}
	if _, err := cl.Cancel(ctx, slow.ID); err != nil {
		t.Fatal(err)
	}
}

// TestErrorEnvelope pins the unified /v1 error shape on the wire.
func TestErrorEnvelope(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	resp, err := http.Get(hs.URL + "/v1/jobs/job-424242")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
	var body serve.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != serve.CodeNotFound || body.Error.Message == "" {
		t.Fatalf("envelope %+v", body)
	}
}
