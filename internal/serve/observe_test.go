package serve_test

import (
	"agingfp/internal/serve"
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/obs"
)

// progressDocument is sized so individual LP solves finish in a couple
// of seconds (the progress counters visibly move) while the whole solve
// runs for minutes — unlike slowDocument, whose single LPs are too big
// to complete before the cancellation tests interrupt them.
var progressDocument = sync.OnceValue(func() string {
	d, err := bench.Synthesize(bench.Spec{
		Name: "crawler", Contexts: 8, Fabric: arch.Fabric{W: 10, H: 10},
		TotalOps: 400, Seed: 3,
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

// follower long-polls GET /v1/jobs/{id}?wait=&after=<last seq> on the
// one route that follows a job. Each call of the returned func waits
// for the next answer past the last one seen and checks it against
// that one: same job and trace, a strictly higher seq, and lp_solves
// that never go backwards.
func follower(t *testing.T, hs *httptest.Server, snap serve.Snapshot) func() serve.Snapshot {
	last := snap.Progress
	return func() serve.Snapshot {
		t.Helper()
		next, code := getSnapshot(t, hs, fmt.Sprintf("%s?wait=60s&after=%d", snap.ID, last.Seq))
		if code != http.StatusOK {
			t.Fatalf("follow: HTTP %d", code)
		}
		if next.ID != snap.ID || next.TraceID != snap.TraceID {
			t.Fatalf("follow identity %q/%q, want %q/%q", next.ID, next.TraceID, snap.ID, snap.TraceID)
		}
		p := next.Progress
		if p.Seq <= last.Seq {
			t.Fatalf("wait answered without news: seq %d after %d (state %s)", p.Seq, last.Seq, next.State)
		}
		if p.LPSolves < last.LPSolves {
			t.Fatalf("lp_solves went backwards: %d after %d", p.LPSolves, last.LPSolves)
		}
		last = p
		return next
	}
}

// TestProgressPollingMidSolve is the end-to-end progress contract of
// the one route that follows a job: a follower is answered at every
// advance with a strictly higher seq and monotone counters while the
// solver runs, and after a cancel with the terminal done update. Run
// under -race this also exercises the lock-free reporter against
// concurrent HTTP readers.
func TestProgressPollingMidSolve(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	snap, code := postJob(t, hs, progressDocument())
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, snap.ID, serve.StateRunning, 10*time.Second)

	follow := follower(t, hs, snap)
	// Follow until the solver has demonstrably moved: several updates,
	// LP solves among them.
	var lpSolves int64
	for advances := 0; advances < 3 || lpSolves == 0; advances++ {
		next := follow()
		if next.Progress.Done || next.State != serve.StateRunning {
			t.Fatalf("running job answered %s with progress %+v", next.State, next.Progress)
		}
		lpSolves = next.Progress.LPSolves
	}

	// Cancel; following on reaches the terminal update.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+snap.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := follow()
	for !final.Progress.Done {
		final = follow()
	}
	if final.Progress.Status != string(serve.StateCanceled) || final.State != serve.StateCanceled {
		t.Fatalf("terminal answer: state %s, progress %+v; want canceled with done=true status=canceled", final.State, final.Progress)
	}
}

// TestEventsStream follows a job's stream of progress events from
// submission to its natural end on the one route: every answer carries
// a strictly higher seq, and the stream ends with the terminal done
// update, status done, on a done job.
func TestEventsStream(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	snap, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	follow := follower(t, hs, snap)
	final := follow()
	for !final.Progress.Done {
		final = follow()
	}
	if final.Progress.Status != string(serve.StateDone) || final.State != serve.StateDone {
		t.Fatalf("terminal answer: state %s, progress %+v; want done with done=true status=done", final.State, final.Progress)
	}
}

// syncBuffer lets the worker goroutines and the request middleware log
// concurrently into one buffer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestLogTraceCorrelation is the correlation golden test: every log
// record the job produces — lifecycle lines from the worker and request
// lines from the middleware — carries the same trace_id the API returns
// in serve.Snapshot.TraceID and the X-Trace-Id header.
func TestLogTraceCorrelation(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, hs, _ := testServer(t, serve.Config{Workers: 1, Logger: logger})

	snap, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if len(snap.TraceID) != 16 {
		t.Fatalf("TraceID = %q, want 16 hex chars", snap.TraceID)
	}
	waitState(t, hs, snap.ID, serve.StateDone, 2*time.Minute)

	// A status poll after completion must echo the ID in the header.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != snap.TraceID {
		t.Fatalf("X-Trace-Id = %q, want %q", got, snap.TraceID)
	}

	// Parse the structured log: lifecycle records keyed by job_id must all
	// carry the job's trace_id, and the request log for the poll above must
	// carry the same one.
	var lifecycle, requests int
	for _, line := range logBuf.lines() {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		switch {
		case rec["job_id"] == snap.ID:
			lifecycle++
			if rec["trace_id"] != snap.TraceID {
				t.Fatalf("lifecycle record %q trace_id = %v, want %q", rec["msg"], rec["trace_id"], snap.TraceID)
			}
		case rec["msg"] == "http request" && rec["trace_id"] != nil:
			requests++
			if rec["trace_id"] != snap.TraceID {
				t.Fatalf("request record trace_id = %v, want %q", rec["trace_id"], snap.TraceID)
			}
		}
	}
	// At minimum: submitted, started, finished.
	if lifecycle < 3 {
		t.Fatalf("%d lifecycle records, want >= 3", lifecycle)
	}
	if requests == 0 {
		t.Fatal("no request records carried the trace_id")
	}
}

// TestMetricsStateGauges checks the live per-state job gauges and the
// queue metrics surface on /metrics after a job and its exact hit
// complete: the done gauge and the done counter both count the hit,
// while the queue-wait and solve histograms count only the job a worker
// ran. The server has a registry and no trace sink, and the solver's
// metric families must still reach /metrics.
func TestMetricsStateGauges(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	snap, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, snap.ID, serve.StateDone, 2*time.Minute)
	if hit, code := postJob(t, hs, `{"bench": "B1"}`); code != http.StatusAccepted || hit.SolveKind != "exact_hit" {
		t.Fatalf("resubmit: HTTP %d solve_kind %q, want an exact hit", code, hit.SolveKind)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`agingfp_serve_jobs{state="done"} 2`,
		`agingfp_serve_jobs_total{state="done"} 2`,
		`agingfp_serve_jobs{state="queued"} 0`,
		`agingfp_serve_jobs{state="running"} 0`,
		`agingfp_serve_queue_depth 0`,
		`agingfp_serve_queue_wait_seconds_count 1`,
		`agingfp_serve_job_seconds_count 1`,
		// The solver's families reach /metrics without any trace sink.
		`# TYPE agingfp_lp_solves_total counter`,
		`# TYPE agingfp_simplex_iters_total counter`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The histograms must carry bucketed exposition, not just sums.
	if !strings.Contains(body, `agingfp_serve_queue_wait_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("/metrics missing queue-wait +Inf bucket:\n%s", body)
	}
}

func readAll(resp *http.Response) (string, error) {
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String(), sc.Err()
}

// TestPprofGated checks the profile handlers mount only on request.
func TestPprofGated(t *testing.T) {
	_, off, _ := testServer(t, serve.Config{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: HTTP %d, want 404", resp.StatusCode)
	}

	_, on, _ := testServer(t, serve.Config{Workers: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestJobSpan checks the span stream a served job leaves: one serve.job
// span per job a worker runs, carrying the job's IDs, with every solver
// span under it and none of them stamped with the trace ID. An exact hit
// runs no worker and so opens no span, and no route serves a per-job
// copy of the stream.
func TestJobSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	tr := obs.New(obs.NewJSONLSink(f))
	_, hs, _ := testServer(t, serve.Config{Workers: 1, Trace: tr})
	snap, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, snap.ID, serve.StateDone, 2*time.Minute)
	if hit, code := postJob(t, hs, `{"bench": "B1"}`); code != http.StatusAccepted || hit.SolveKind != "exact_hit" {
		t.Fatalf("resubmit: HTTP %d solve_kind %q, want an exact hit", code, hit.SolveKind)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + snap.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/{id}/trace: HTTP %d, want 404", resp.StatusCode)
	}
	// The worker flushes the tracer when the job's span ends, before the
	// job's terminal state is published: the file holds the whole stream
	// while the server runs, before any Drain.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	type spanLine struct {
		Name    string                 `json:"name"`
		ID      uint64                 `json:"id"`
		Parent  uint64                 `json:"parent"`
		Instant bool                   `json:"instant"`
		Attrs   map[string]interface{} `json:"attrs"`
	}
	var jobs, rest []spanLine
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var l spanLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("bad trace line: %v", err)
		}
		switch {
		case l.Instant:
		case l.Name == "serve.job":
			jobs = append(jobs, l)
		default:
			rest = append(rest, l)
		}
	}
	if len(jobs) != 1 {
		t.Fatalf("%d serve.job spans, want 1 (the exact hit opens none)", len(jobs))
	}
	job := jobs[0]
	for key, want := range map[string]string{"job_id": snap.ID, "trace_id": snap.TraceID, "solve_kind": "cold", "state": "done"} {
		if got := job.Attrs[key]; got != want {
			t.Errorf("serve.job %s = %v, want %q", key, got, want)
		}
	}
	remaps := 0
	for _, l := range rest {
		if !strings.HasPrefix(l.Name, "core.") {
			t.Errorf("unexpected span %s", l.Name)
		}
		if l.Parent == 0 {
			t.Errorf("%s span is a trace root, want it under serve.job", l.Name)
		}
		if _, ok := l.Attrs["trace_id"]; ok {
			t.Errorf("%s span carries trace_id; only serve.job does", l.Name)
		}
		if l.Name == "core.remap" && l.Parent == job.ID {
			remaps++
		}
	}
	if remaps != 1 {
		t.Fatalf("%d core.remap spans under serve.job, want 1", remaps)
	}
}

// TestCacheHitTerminalProgress: a done snapshot carries the terminal
// progress update, so a follower stops, whether the job was solved cold
// or answered by the cache in its own 202.
func TestCacheHitTerminalProgress(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	first, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	done, code := getSnapshot(t, hs, first.ID+"?wait=60s")
	if code != http.StatusOK || done.State != serve.StateDone {
		t.Fatalf("cold job: HTTP %d state %q, want done", code, done.State)
	}
	if !done.Progress.Done || done.Progress.Status != string(serve.StateDone) {
		t.Fatalf("cold done progress = %+v, want done=true status=done", done.Progress)
	}

	second, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	if second.State != serve.StateDone {
		t.Fatalf("cache hit state %q, want done", second.State)
	}
	if !second.Progress.Done || second.Progress.Status != string(serve.StateDone) {
		t.Fatalf("cache-hit 202 progress = %+v, want done=true status=done", second.Progress)
	}
	if second.TraceID == first.TraceID {
		t.Fatal("cache hit reused the original trace ID; wants its own")
	}
}
