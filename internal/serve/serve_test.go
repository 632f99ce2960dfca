package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/obs"
	"agingfp/internal/serve"
	"agingfp/internal/serve/client"
)

// testServer wires a serve.Server into an httptest listener, builds a
// typed client against it, and tears everything down with the test.
func testServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Registry = reg
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	s := serve.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain()
	})
	return s, hs, reg
}

// testClient builds the typed client the e2e tests drive the API with.
func testClient(hs *httptest.Server) *client.Client {
	cl := client.New(hs.URL, hs.Client())
	cl.PollInterval = 5 * time.Millisecond
	return cl
}

// postJob submits a raw body over plain HTTP — kept raw (not the typed
// client) so the validation tests can send malformed JSON.
func postJob(t *testing.T, hs *httptest.Server, body string) (serve.Snapshot, int) {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return snap, resp.StatusCode
}

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitState polls the job through the typed client until it reaches
// want (or any terminal state) and returns the final snapshot.
func waitState(t *testing.T, hs *httptest.Server, id string, want serve.JobState, timeout time.Duration) serve.Snapshot {
	t.Helper()
	cl := testClient(hs)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		snap, err := cl.Job(ctx, id)
		if err != nil {
			t.Fatalf("status poll: %v", err)
		}
		if snap.State == want {
			return snap
		}
		switch snap.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			t.Fatalf("job %s reached terminal state %q, want %q (err: %s)", id, snap.State, want, snap.Error)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("job %s stuck in %q, want %q", id, snap.State, want)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// slowDocument returns a workload big enough that the solve takes
// minutes — the cancellation and drain tests interrupt it long before
// that. Built once; Synthesize is cheap, it is the solve that is slow.
var slowDocument = sync.OnceValue(func() string {
	d, err := bench.Synthesize(bench.Spec{
		Name: "slowpoke", Contexts: 8, Fabric: arch.Fabric{W: 12, H: 12},
		TotalOps: 900, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	doc, err := json.Marshal(arch.ToDocument(d, nil))
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf(`{"design": %s}`, doc)
})

func TestJobLifecycle(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	snap, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if snap.State != serve.StateQueued && snap.State != serve.StateDone {
		t.Fatalf("fresh job state %q", snap.State)
	}

	// Result before completion must 409 (unless the tiny job already
	// finished, in which case the lifecycle collapsed legitimately).
	resp, err := http.Get(hs.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("early result: HTTP %d", resp.StatusCode)
	}

	waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)

	cl := testClient(hs)
	_, res, err := cl.Result(context.Background(), snap.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Design != "B1" {
		t.Fatalf("result design %q", res.Design)
	}
	if res.Status != "feasible" && res.Status != "optimal" {
		t.Fatalf("result status %q", res.Status)
	}
	if res.MTTF.Increase <= 0 || res.MTTF.BeforeHours <= 0 {
		t.Fatalf("implausible MTTF report: %+v", res.MTTF)
	}
	if len(res.Mapping) == 0 {
		t.Fatal("empty mapping in result")
	}

	// Unknown job ids surface as a typed not_found APIError.
	if _, err := cl.Job(context.Background(), "job-999999"); err == nil {
		t.Fatal("unknown job: want error")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusNotFound || apiErr.Code != serve.CodeNotFound {
		t.Fatalf("unknown job error: %v", err)
	}
}

// finishProbe is a log handler that, when a job logs "job finished"
// (before its terminal state is published), reads the job's snapshot
// and sends it on finished.
type finishProbe struct {
	srv      atomic.Pointer[serve.Server]
	finished chan serve.Snapshot
}

func (h *finishProbe) Enabled(context.Context, slog.Level) bool { return true }
func (h *finishProbe) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *finishProbe) WithGroup(string) slog.Handler            { return h }

func (h *finishProbe) Handle(_ context.Context, r slog.Record) error {
	srv := h.srv.Load()
	if r.Message != "job finished" || srv == nil {
		return nil
	}
	var id string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "job_id" {
			id = a.Value.String()
			return false
		}
		return true
	})
	snap, _ := srv.Job(id)
	h.finished <- snap
	return nil
}

// TestTerminalSnapshotCarriesCost polls job snapshots as fast as it can
// while jobs finish: a snapshot that reads a terminal state must already
// carry the cost block (it used to be set after the state was
// published). A log handler also reads each snapshot at the moment the
// job logs its finish, when the job must not be terminal yet: the log
// record is one of the views written before the state is published.
// Run it under -race.
func TestTerminalSnapshotCarriesCost(t *testing.T) {
	const jobs = 6
	probe := &finishProbe{finished: make(chan serve.Snapshot, jobs)} // one send per job
	s, _, _ := testServer(t, serve.Config{Workers: 2, Logger: slog.New(probe)})
	probe.srv.Store(s)
	var ids []string
	for seed := int64(1); seed <= jobs; seed++ {
		snap, err := s.Submit(&serve.JobRequest{Bench: "B1", Mode: "freeze", Seed: seed})
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		ids = append(ids, snap.ID)
	}
	deadline := time.Now().Add(2 * time.Minute)
	pending := append([]string(nil), ids...)
	polls := 0
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("jobs %v not terminal after 2m", pending)
		}
		next := pending[:0]
		for _, id := range pending {
			snap, err := s.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			polls++
			switch snap.State {
			case serve.StateDone, serve.StateFailed, serve.StateCanceled:
				if snap.Cost == nil {
					t.Fatalf("job %s snapshot reads %q without a cost block", id, snap.State)
				}
			default:
				next = append(next, id)
			}
		}
		pending = next
		runtime.Gosched()
	}
	// A job logs its finish before its state turns terminal, so every
	// record arrived before the polls ended.
	for range ids {
		select {
		case snap := <-probe.finished:
			if snap.State != serve.StateRunning || snap.Cost != nil || !snap.Finished.IsZero() {
				t.Fatalf("at its finish log, job %s snapshot reads %q (cost %v, finished %v), want running without either",
					snap.ID, snap.State, snap.Cost, snap.Finished)
			}
		case <-time.After(time.Until(deadline)):
			t.Fatal("jobs did not all log their finish within 2m")
		}
	}
	t.Logf("%d jobs terminal after %d snapshot polls", len(ids), polls)
}

func TestCacheHitByteIdentical(t *testing.T) {
	_, hs, reg := testServer(t, serve.Config{Workers: 1})

	first, code := postJob(t, hs, `{"bench": "B1", "seed": 11}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, first.ID, serve.StateDone, 30*time.Second)

	// Identical content in a different field order and spacing must hit
	// the cache: the key hashes the canonicalized request.
	second, code := postJob(t, hs, `{ "seed": 11, "bench": "B1" }`)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	if second.State != serve.StateDone {
		t.Fatalf("cache hit not served instantly: state %q", second.State)
	}
	if got := reg.Counter(`agingfp_serve_cache_hits_total`).Value(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}

	cl := testClient(hs)
	read := func(id string) []byte {
		raw, _, err := cl.Result(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := read(first.ID), read(second.ID)
	if !bytes.Equal(a, b) {
		t.Fatalf("replayed result differs from original:\n%s\nvs\n%s", a, b)
	}

	// A different seed is a different workload.
	third, code := postJob(t, hs, `{"bench": "B1", "seed": 12}`)
	if code != http.StatusAccepted {
		t.Fatalf("third submit: HTTP %d", code)
	}
	if third.State == serve.StateDone {
		t.Fatal("different seed must not hit the cache")
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	snap, code := postJob(t, hs, slowDocument())
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, snap.ID, serve.StateRunning, 10*time.Second)

	cl := testClient(hs)
	start := time.Now()
	if _, err := cl.Cancel(context.Background(), snap.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	// The solver must unwind cooperatively well before the solve would
	// finish (the workload runs for minutes uncanceled).
	got := waitState(t, hs, snap.ID, serve.StateCanceled, 15*time.Second)
	elapsed := time.Since(start)
	if elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	t.Logf("canceled %v after the request", elapsed)
	if got.Error == "" {
		t.Fatal("canceled job should record the cancellation cause")
	}

	// Result for a canceled job is an error, not a document.
	if _, _, err := cl.Result(context.Background(), snap.ID); err == nil {
		t.Fatal("canceled job served a result")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	running, code := postJob(t, hs, slowDocument())
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	queued, code := postJob(t, hs, `{"bench": "B3"}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", code)
	}

	cl := testClient(hs)
	if _, err := cl.Cancel(context.Background(), queued.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, hs, queued.ID, serve.StateCanceled, 5*time.Second)

	// Unblock the worker so Cleanup's Drain stays fast.
	if _, err := cl.Cancel(context.Background(), running.ID); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	body := strings.Replace(slowDocument(), `{"design"`, `{"deadline_ms": 300, "design"`, 1)
	snap, code := postJob(t, hs, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	got := waitState(t, hs, snap.ID, serve.StateFailed, 30*time.Second)
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("deadline job error %q", got.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	for _, body := range []string{
		`{}`,                                    // neither bench nor design
		`{"bench": "B1", "design": {}}`,         // both
		`{"bench": "B99"}`,                      // unknown benchmark
		`{"bench": "B1", "mode": "sideways"}`,   // unknown mode
		`{"bench": "B1", "deadline_ms": -4}`,    // negative deadline
		`{"bench": "B1", "time_limit_ms": -10}`, // negative solver budget
		`not json`,
	} {
		if _, code := postJob(t, hs, body); code != http.StatusBadRequest {
			t.Errorf("submit %s: HTTP %d, want 400", body, code)
		}
	}
}

func TestQueueFullAndDrain(t *testing.T) {
	s, hs, _ := testServer(t, serve.Config{Workers: 1, QueueDepth: 1, DrainTimeout: time.Second})

	running, code := postJob(t, hs, slowDocument())
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, running.ID, serve.StateRunning, 10*time.Second)
	if _, code := postJob(t, hs, `{"bench": "B4"}`); code != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d", code)
	}
	// Over capacity: a 503 that tells the client when to come back. The
	// hint is queue depth scaled by observed solve time, clamped to at
	// least one second, so it must parse as a positive integer.
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(`{"bench": "B5"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: HTTP %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("503 Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	// Drain force-cancels the slow job after DrainTimeout and must
	// return promptly (bounded well below the solve's natural runtime).
	start := time.Now()
	s.Drain()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
	if !s.Draining() {
		t.Fatal("server not draining after Drain")
	}
	if _, code := postJob(t, hs, `{"bench": "B6"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: HTTP %d, want 503", code)
	}
	final := waitState(t, hs, running.ID, serve.StateCanceled, 5*time.Second)
	if final.State != serve.StateCanceled {
		t.Fatalf("drained job state %q", final.State)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if code := getJSON(t, hs.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if health.Status != "ok" || health.Draining {
		t.Fatalf("healthz: %+v", health)
	}

	snap, _ := postJob(t, hs, `{"bench": "B1"}`)
	waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"agingfp_serve_jobs_submitted_total 1",
		`agingfp_serve_jobs_total{state="done"} 1`,
		"agingfp_serve_cache_misses_total 1",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, b)
		}
	}
}

// TestDrainLeavesNoWorkers exercises the bare server (no HTTP): after a
// drain the worker goroutines must be gone — the job-server lifecycle
// owns its goroutines completely.
func TestDrainLeavesNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	s := serve.New(serve.Config{Workers: 4, DrainTimeout: time.Second})
	if _, err := s.Submit(&serve.JobRequest{Bench: "B1"}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines: %d before, %d after drain", before, got)
	}
}
