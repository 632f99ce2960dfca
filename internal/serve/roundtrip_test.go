package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"agingfp/internal/serve"
	"agingfp/internal/serve/client"
)

// countingServer serves s's handler behind a wrapper that counts the
// HTTP requests it answers.
func countingServer(t *testing.T, s *serve.Server) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	h := s.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs, &n
}

// getResult fetches GET /v1/jobs/{id}/result over plain HTTP.
func getResult(t *testing.T, hs *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result of %s: HTTP %d %v: %s", id, resp.StatusCode, err, raw)
	}
	return raw
}

// TestInlineResultIsGetResult: the result a done snapshot carries is
// byte for byte what GET /result serves, for a cold job, an exact hit
// and a semantic hit, and an exact hit's bytes are the cold job's. A
// hit's Submit then Result makes one HTTP request; a cold job's Submit,
// Wait and Result make two.
func TestInlineResultIsGetResult(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, DrainTimeout: 2 * time.Second})
	t.Cleanup(s.Drain)
	hs, requests := countingServer(t, s)
	cl := client.New(hs.URL, hs.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	doc := designDoc(t, "inline", 10, 3, 3, 3, 7)

	// answer runs one request the way a caller of the client does and
	// returns the final snapshot, the bytes Result returned and the HTTP
	// requests it took.
	answer := func(req *serve.JobRequest) (serve.Snapshot, []byte, int64) {
		t.Helper()
		before := requests.Load()
		snap, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != serve.StateDone {
			if len(snap.Result) != 0 {
				t.Fatalf("job %s is %s and carries a result", snap.ID, snap.State)
			}
			if snap, err = cl.Wait(ctx, snap.ID); err != nil || snap.State != serve.StateDone {
				t.Fatalf("wait for %s: %v (state %s %s)", snap.ID, err, snap.State, snap.Error)
			}
		}
		raw, res, err := cl.Result(ctx, snap.ID)
		if err != nil || res == nil {
			t.Fatalf("result of %s: %v", snap.ID, err)
		}
		return snap, raw, requests.Load() - before
	}

	cold, coldRaw, n := answer(&serve.JobRequest{Design: doc})
	if cold.SolveKind != "cold" || n != 2 {
		t.Fatalf("cold job: solve_kind %s in %d requests, want cold in 2", cold.SolveKind, n)
	}
	exact, exactRaw, n := answer(&serve.JobRequest{Design: doc})
	if exact.SolveKind != "exact_hit" || n != 1 {
		t.Fatalf("resubmission: solve_kind %s in %d requests, want exact_hit in 1", exact.SolveKind, n)
	}
	sem, semRaw, n := answer(&serve.JobRequest{Design: renumberDoc(t, doc, reversePerm(len(doc.Ops)))})
	if sem.SolveKind != "semantic_hit" || n != 1 {
		t.Fatalf("renumbered resubmission: solve_kind %s in %d requests, want semantic_hit in 1", sem.SolveKind, n)
	}
	if !bytes.Equal(exactRaw, coldRaw) {
		t.Fatalf("exact hit answered other bytes than its cold job:\n%s\nvs\n%s", exactRaw, coldRaw)
	}
	for _, c := range []struct {
		snap serve.Snapshot
		raw  []byte
	}{{cold, coldRaw}, {exact, exactRaw}, {sem, semRaw}} {
		get := getResult(t, hs, c.snap.ID)
		if !bytes.Equal(c.snap.Result, get) || !bytes.Equal(c.raw, get) {
			t.Fatalf("%s job %s: inline result differs from GET /result:\n%s\nvs\n%s", c.snap.SolveKind, c.snap.ID, c.snap.Result, get)
		}
	}
}

// TestResultFallsBackToGet: Result fetches a job's result when the
// held one belongs to another job, and keeps the held one for its own.
func TestResultFallsBackToGet(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, DrainTimeout: 2 * time.Second})
	t.Cleanup(s.Drain)
	hs, requests := countingServer(t, s)
	cl := client.New(hs.URL, hs.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	first, err := cl.Submit(ctx, &serve.JobRequest{Bench: "B1"})
	if err != nil {
		t.Fatal(err)
	}
	if first, err = cl.Wait(ctx, first.ID); err != nil || first.State != serve.StateDone {
		t.Fatalf("wait: %v (state %s)", err, first.State)
	}
	hit, err := cl.Submit(ctx, &serve.JobRequest{Bench: "B1"})
	if err != nil || hit.SolveKind != "exact_hit" {
		t.Fatalf("resubmission: %v (solve_kind %s)", err, hit.SolveKind)
	}
	// The client now holds the hit's result, not the first job's.
	before := requests.Load()
	raw, _, err := cl.Result(ctx, first.ID)
	if err != nil || requests.Load()-before != 1 || !bytes.Equal(raw, getResult(t, hs, first.ID)) {
		t.Fatalf("result of %s with another job's held: %v after %d requests", first.ID, err, requests.Load()-before-1)
	}
	before = requests.Load()
	raw, _, err = cl.Result(ctx, hit.ID)
	if err != nil || requests.Load() != before || !bytes.Equal(raw, hit.Result) {
		t.Fatalf("result of %s held: %v after %d requests, want 0", hit.ID, err, requests.Load()-before)
	}
	// Result released what it held: asking again goes to the server.
	if _, _, err = cl.Result(ctx, hit.ID); err != nil || requests.Load()-before != 1 {
		t.Fatalf("result of %s again: %v after %d requests, want 1", hit.ID, err, requests.Load()-before)
	}
}

// blockingWait issues GET /v1/jobs/{id}?wait=60s in the background.
func blockingWait(hs *httptest.Server, id string) <-chan serve.Snapshot {
	out := make(chan serve.Snapshot, 1)
	go func() {
		var snap serve.Snapshot
		if resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "?wait=60s"); err == nil {
			if raw, err := io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
				snap.UnmarshalJSON(raw) //nolint:errcheck // a zero snapshot fails the caller's check
			}
			resp.Body.Close()
		}
		out <- snap
	}()
	return out
}

// awaitEnd reads a blocking wait's answer and checks it came before the
// wait ran out, in state want.
func awaitEnd(t *testing.T, ch <-chan serve.Snapshot, want serve.JobState, within time.Duration) serve.Snapshot {
	t.Helper()
	select {
	case snap := <-ch:
		if snap.State != want {
			t.Fatalf("blocking wait returned %q (%s), want %q", snap.State, snap.Error, want)
		}
		return snap
	case <-time.After(within):
		t.Fatalf("blocking wait still open after %v", within)
	}
	return serve.Snapshot{}
}

// TestBlockingWaitEnds: a blocking wait returns with the terminal
// snapshot as soon as its job is canceled while running, expires in
// the queue, or is force-canceled by Drain, long before the wait runs
// out; a wait of 0 returns at once.
func TestBlockingWaitEnds(t *testing.T) {
	t.Run("canceled", func(t *testing.T) {
		_, hs, _ := testServer(t, serve.Config{Workers: 1})
		slow, _ := postJob(t, hs, slowDocument())
		waitState(t, hs, slow.ID, serve.StateRunning, 10*time.Second)
		ch := blockingWait(hs, slow.ID)
		if _, err := testClient(hs).Cancel(context.Background(), slow.ID); err != nil {
			t.Fatal(err)
		}
		awaitEnd(t, ch, serve.StateCanceled, 30*time.Second)
	})
	t.Run("expired in the queue", func(t *testing.T) {
		_, hs, _ := testServer(t, serve.Config{Workers: 1})
		blocker, _ := postJob(t, hs, slowDocument())
		waitState(t, hs, blocker.ID, serve.StateRunning, 10*time.Second)
		expired, _ := postJob(t, hs, `{"bench": "B4", "deadline_ms": 1}`)
		now, code := getSnapshot(t, hs, expired.ID+"?wait=0s")
		if code != http.StatusOK || now.State != serve.StateQueued {
			t.Fatalf("wait=0s on a queued job: HTTP %d state %q, want 200 queued", code, now.State)
		}
		ch := blockingWait(hs, expired.ID)
		// The deadline has passed, but the job ends only when the worker
		// reaches it.
		time.Sleep(50 * time.Millisecond)
		if _, err := testClient(hs).Cancel(context.Background(), blocker.ID); err != nil {
			t.Fatal(err)
		}
		snap := awaitEnd(t, ch, serve.StateFailed, 30*time.Second)
		if !strings.Contains(snap.Error, "deadline") || !snap.Started.IsZero() {
			t.Fatalf("expired job: error %q, started %v; want a deadline in the queue", snap.Error, snap.Started)
		}
	})
	t.Run("drain", func(t *testing.T) {
		s, hs, _ := testServer(t, serve.Config{Workers: 1, DrainTimeout: 200 * time.Millisecond})
		slow, _ := postJob(t, hs, slowDocument())
		waitState(t, hs, slow.ID, serve.StateRunning, 10*time.Second)
		ch := blockingWait(hs, slow.ID)
		s.Drain()
		awaitEnd(t, ch, serve.StateCanceled, 30*time.Second)
	})
}

// getSnapshot GETs /v1/jobs/<path> and decodes a 200 answer.
func getSnapshot(t *testing.T, hs *httptest.Server, path string) (serve.Snapshot, int) {
	t.Helper()
	var snap serve.Snapshot
	return snap, getJSON(t, hs.URL+"/v1/jobs/"+path, &snap)
}

// TestWaitRefusals: a malformed or negative wait or after answers 400
// through the error envelope, and a wait on an unknown job 404.
func TestWaitRefusals(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	snap, _ := postJob(t, hs, `{"bench": "B1"}`)
	for path, want := range map[string]int{
		snap.ID + "?wait=soon":         http.StatusBadRequest,
		snap.ID + "?wait=10":           http.StatusBadRequest,
		snap.ID + "?wait=-1s":          http.StatusBadRequest,
		"job-999999?wait=1s":           http.StatusNotFound,
		"job-999999?wait=not-a-value":  http.StatusBadRequest,
		snap.ID + "?wait=1s&after=-1":  http.StatusBadRequest,
		snap.ID + "?wait=1s&after=x":   http.StatusBadRequest,
		snap.ID + "?wait=1s&after=1.5": http.StatusBadRequest,
		snap.ID + "?after=-0":          http.StatusBadRequest,
		"job-999999?after=soon":        http.StatusBadRequest,
	} {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + path)
		if err != nil {
			t.Fatal(err)
		}
		var body serve.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != want || err != nil || body.Error.Message == "" {
			t.Errorf("GET /v1/jobs/%s: HTTP %d, envelope %+v (%v); want %d with an error envelope", path, resp.StatusCode, body, err, want)
		}
	}
}
