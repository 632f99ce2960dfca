package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/obs"
	"agingfp/internal/serve"
	"agingfp/internal/serve/client"
	"agingfp/internal/telemetry"
)

// eventLog collects the wide events a pipeline accepts, by job id.
type eventLog struct {
	mu  sync.Mutex
	evs map[string]telemetry.SolveEvent
}

func (l *eventLog) record(ev *telemetry.SolveEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs[ev.JobID] = *ev
}

// get returns the job's wide event. A job records its event before its
// state turns terminal, so a job a poll saw finish has one.
func (l *eventLog) get(id string) (telemetry.SolveEvent, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev, ok := l.evs[id]
	return ev, ok
}

// observedPipeline opens a telemetry pipeline whose events also land in
// the returned log.
func observedPipeline(tb testing.TB) (*telemetry.Pipeline, *eventLog) {
	tb.Helper()
	log := &eventLog{evs: make(map[string]telemetry.SolveEvent)}
	p, err := telemetry.Open(telemetry.Config{
		Dir:       tb.TempDir(),
		Observers: []func(*telemetry.SolveEvent){log.record},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	return p, log
}

// sameWorkload fails unless the hit's wide event names the cold job's
// workload: design, ops and contexts.
func sameWorkload(t *testing.T, log *eventLog, coldID, hitID string) {
	t.Helper()
	cold, ok := log.get(coldID)
	if !ok {
		t.Fatalf("no wide event for cold job %s", coldID)
	}
	hit, ok := log.get(hitID)
	if !ok {
		t.Fatalf("no wide event for hit %s", hitID)
	}
	if !hit.CacheHit || hit.Bench != cold.Bench || hit.Ops != cold.Ops || hit.Contexts != cold.Contexts || hit.Ops == 0 {
		t.Fatalf("hit %s event %q ops %d contexts %d cache_hit %v, want cold's %q/%d/%d",
			hitID, hit.Bench, hit.Ops, hit.Contexts, hit.CacheHit, cold.Bench, cold.Ops, cold.Contexts)
	}
}

// TestCacheHitsKeepIdentity: an exact hit, a semantic hit and an exact
// hit on the promoted entry each serve the cold rendering for their own
// numbering, report the cold job's workload in their wide event, and
// seed a delta exactly as the cold job does.
func TestCacheHitsKeepIdentity(t *testing.T) {
	doc := designDoc(t, "identity-e2e", 10, 3, 3, 3, 7)
	renumbered := renumberDoc(t, doc, reversePerm(len(doc.Ops)))
	renumbered.Name = doc.Name // same workload, other numbering
	ctx := context.Background()

	p, log := observedPipeline(t)
	_, hs, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p})
	cl := testClient(hs)
	submit := func(d *arch.Document, wantKind string) (string, []byte) {
		t.Helper()
		snap, err := cl.Submit(ctx, &serve.JobRequest{Design: d})
		if err != nil {
			t.Fatal(err)
		}
		if snap.SolveKind != wantKind {
			t.Fatalf("solve_kind %q, want %q", snap.SolveKind, wantKind)
		}
		waitState(t, hs, snap.ID, serve.StateDone, 60*time.Second)
		raw, _, err := cl.Result(ctx, snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		return snap.ID, raw
	}

	coldID, coldBytes := submit(doc, "cold")
	exactID, exactBytes := submit(doc, "exact_hit")
	semID, semBytes := submit(renumbered, "semantic_hit")
	promotedID, promotedBytes := submit(renumbered, "exact_hit")

	// The cold rendering of the renumbered copy, from a fresh server.
	_, hs2, _ := testServer(t, serve.Config{Workers: 1})
	cl2 := testClient(hs2)
	snap2, err := cl2.Submit(ctx, &serve.JobRequest{Design: renumbered})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hs2, snap2.ID, serve.StateDone, 60*time.Second)
	renumberedCold, _, err := cl2.Result(ctx, snap2.ID)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(exactBytes, coldBytes) {
		t.Fatalf("exact hit differs from the cold result:\n%s\nvs\n%s", exactBytes, coldBytes)
	}
	if !bytes.Equal(semBytes, renumberedCold) || !bytes.Equal(promotedBytes, renumberedCold) {
		t.Fatalf("renumbered hits differ from its cold rendering:\n%s\n%s\nvs\n%s", semBytes, promotedBytes, renumberedCold)
	}
	for _, id := range []string{exactID, semID, promotedID} {
		sameWorkload(t, log, coldID, id)
	}

	// A delta against every job, in that job's own numbering, seeds
	// from the base; the one against the exact hit repeats the delta
	// against the cold job byte for byte.
	var deltaBytes [][]byte
	for _, base := range []struct {
		id  string
		doc *arch.Document
	}{{coldID, doc}, {exactID, doc}, {semID, renumbered}, {promotedID, renumbered}} {
		snap, err := cl.Delta(ctx, base.id, &serve.DeltaRequest{Design: base.doc})
		if err != nil {
			t.Fatal(err)
		}
		final := waitState(t, hs, snap.ID, serve.StateDone, 60*time.Second)
		if final.DeltaFallback != "" || final.Reuse == nil {
			t.Fatalf("delta against %s: delta_fallback %q reuse %v, want seeded", base.id, final.DeltaFallback, final.Reuse)
		}
		raw, _, err := cl.Result(ctx, snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		deltaBytes = append(deltaBytes, raw)
	}
	if !bytes.Equal(deltaBytes[0], deltaBytes[1]) {
		t.Fatalf("delta against the exact hit differs from the delta against the cold job:\n%s\nvs\n%s", deltaBytes[1], deltaBytes[0])
	}
}

// cacheCounters snapshots every counter a submission can move.
func cacheCounters(reg *obs.Registry) [6]int64 {
	return [6]int64{
		reg.Counter(`agingfp_serve_jobs_submitted_total`).Value(),
		reg.Counter(`agingfp_serve_cache_hits_total`).Value(),
		reg.Counter(`agingfp_serve_cache_misses_total`).Value(),
		reg.Counter(`agingfp_cache_semantic_hits_total`).Value(),
		reg.Counter(`agingfp_serve_cache_tier_hits_total{tier="exact"}`).Value(),
		reg.Counter(`agingfp_serve_cache_tier_hits_total{tier="semantic"}`).Value(),
	}
}

// TestCacheHitValidationUnchanged: answering exact hits first does not
// let a bad submission through or change what it is told, and delivery
// metadata stays out of the exact key.
func TestCacheHitValidationUnchanged(t *testing.T) {
	doc := designDoc(t, "validate-e2e", 10, 3, 3, 3, 5)
	ctx := context.Background()
	_, hs, reg := testServer(t, serve.Config{Workers: 1})
	cl := testClient(hs)

	cold, err := cl.Submit(ctx, &serve.JobRequest{Design: doc})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hs, cold.ID, serve.StateDone, 60*time.Second)
	before := cacheCounters(reg)

	badEdge := copyDoc(t, doc)
	badEdge.Edges = append(badEdge.Edges, [2]int{0, 99})
	shortMap := copyDoc(t, doc)
	shortMap.Mappings["baseline"] = shortMap.Mappings["baseline"][1:]
	for _, tc := range []struct {
		name string
		req  *serve.JobRequest
		msg  string // "" skips the message check
	}{
		{"edge out of range", &serve.JobRequest{Design: badEdge},
			"serve: bad design: arch: document edge [0 99] out of range"},
		{"wrong-length mapping", &serve.JobRequest{Design: shortMap},
			`serve: bad design: arch: mapping "baseline" has 9 cells, want 10`},
		{"negative time limit on a cached design", &serve.JobRequest{Design: doc, TimeLimitMs: -10}, ""},
	} {
		_, err := cl.Submit(ctx, tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("%s: err %v, want HTTP 400", tc.name, err)
		}
		if tc.msg != "" && apiErr.Message != tc.msg {
			t.Fatalf("%s: message %q, want %q", tc.name, apiErr.Message, tc.msg)
		}
		if got := cacheCounters(reg); got != before {
			t.Fatalf("%s moved the counters: %v -> %v", tc.name, before, got)
		}
	}

	body, err := json.Marshal(&serve.JobRequest{Design: doc, DeadlineMs: 60000})
	if err != nil {
		t.Fatal(err)
	}
	snap, code, _ := postJobAs(t, hs, "team-other", string(body))
	if code != http.StatusAccepted || snap.SolveKind != "exact_hit" || snap.Tenant != "team-other" {
		t.Fatalf("resubmission under another tenant and deadline: HTTP %d, solve_kind %q, tenant %q",
			code, snap.SolveKind, snap.Tenant)
	}
}

// waitCold polls the cold job until it has published progress past seq
// (or, with untilDone, until it is done) and returns its latest progress
// sequence number and whether it is done.
func waitCold(s *serve.Server, id string, seq uint64, untilDone bool) (uint64, bool, error) {
	for {
		snap, err := s.Job(id)
		if err != nil {
			return 0, false, err
		}
		p := snap.Progress
		switch snap.State {
		case serve.StateDone:
			return p.Seq, true, nil
		case serve.StateQueued, serve.StateRunning:
		default:
			return 0, false, fmt.Errorf("cold job ended %q: %s", snap.State, snap.Error)
		}
		if !untilDone && p.Seq > seq {
			return p.Seq, false, nil
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestExactHitRace: resubmissions racing the cold job's completion are
// each either a cold job of their own or an exact hit that carries the
// cold bytes and the cold job's workload identity.
func TestExactHitRace(t *testing.T) {
	doc := designDoc(t, "race-e2e", 16, 3, 4, 4, 17)
	p, log := observedPipeline(t)
	// Each caller queues at most maxMisses solves of its own, all behind
	// the cold job on the one worker, so the queue never fills.
	const callers, maxMisses = 8, 6
	s, _, _ := testServer(t, serve.Config{Workers: 1, QueueDepth: callers*maxMisses + 1, Telemetry: p})

	cold, err := s.Submit(&serve.JobRequest{Design: doc})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		hitIDs []string
	)
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var (
				seq    uint64
				done   bool
				misses int
			)
			for {
				snap, err := s.Submit(&serve.JobRequest{Design: doc})
				if err != nil {
					t.Error(err)
					return
				}
				if snap.SolveKind == "exact_hit" && snap.State == serve.StateDone {
					mu.Lock()
					hitIDs = append(hitIDs, snap.ID)
					mu.Unlock()
					return
				}
				if snap.SolveKind != "cold" || (snap.State != serve.StateQueued && snap.State != serve.StateRunning) {
					t.Errorf("resubmission answered %q in state %q", snap.SolveKind, snap.State)
					return
				}
				if done {
					t.Errorf("resubmission %s missed after the cold job finished", snap.ID)
					return
				}
				// The miss queued a solve of its own: drop it, and try
				// again when the cold job has moved on — once it has
				// finished when this caller's misses are spent.
				if err := s.Cancel(snap.ID); err != nil {
					t.Error(err)
					return
				}
				misses++
				if seq, done, err = waitCold(s, cold.ID, seq, misses == maxMisses); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	if _, _, err := waitCold(s, cold.ID, 0, true); err != nil {
		t.Fatal(err)
	}
	coldBytes, err := s.Result(cold.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(hitIDs) != callers {
		t.Fatalf("%d callers got an exact hit, want %d", len(hitIDs), callers)
	}
	for _, id := range hitIDs {
		raw, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, coldBytes) {
			t.Fatalf("hit %s differs from the cold result", id)
		}
		sameWorkload(t, log, cold.ID, id)
	}
}

// BenchmarkSubmitHit times Submit on an in-process server for requests
// the cache answers: exact resubmissions of one design, and renamed
// copies of it, which miss the exact tier and hit the semantic one.
func BenchmarkSubmitHit(b *testing.B) {
	d := designDoc(b, "hit-bench", 16, 3, 4, 4, 9)
	for _, tc := range []struct {
		name, kind string
		req        func(i int) *serve.JobRequest
	}{
		{"exact", "exact_hit", func(int) *serve.JobRequest { return &serve.JobRequest{Design: d} }},
		{"semantic", "semantic_hit", func(i int) *serve.JobRequest {
			renamed := *d
			renamed.Name = fmt.Sprintf("hit-bench-%d", i)
			return &serve.JobRequest{Design: &renamed}
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p, _ := observedPipeline(b)
			s := serve.New(serve.Config{Workers: 1, Registry: obs.NewRegistry(), Telemetry: p})
			defer s.Drain()
			cold, err := s.Submit(&serve.JobRequest{Design: d})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := waitCold(s, cold.ID, 0, true); err != nil {
				b.Fatal(err)
			}
			reqs := make([]*serve.JobRequest, b.N)
			for i := range reqs {
				reqs[i] = tc.req(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := s.Submit(reqs[i])
				if err != nil {
					b.Fatal(err)
				}
				if snap.SolveKind != tc.kind {
					b.Fatalf("solve_kind %q, want %q", snap.SolveKind, tc.kind)
				}
			}
		})
	}
}
