package serve_test

import (
	"agingfp/internal/serve"
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
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

// TestProgressPollingMidSolve is the end-to-end progress contract: a
// slow job exposes live, monotonically advancing counters through
// GET /v1/jobs/{id}/progress while the solver runs, and a cancel leaves
// a terminal done=true snapshot behind. Run under -race this also
// exercises the lock-free reporter against concurrent HTTP readers.
func TestProgressPollingMidSolve(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	snap, code := postJob(t, hs, progressDocument())
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, snap.ID, serve.StateRunning, 10*time.Second)

	// Poll until the solver has demonstrably moved twice, asserting the
	// monotone-counter contract on every observation.
	var lastSeq uint64
	var lastLP int64
	advances := 0
	deadline := time.Now().Add(90 * time.Second)
	for (advances < 2 || lastLP == 0) && time.Now().Before(deadline) {
		var ps serve.ProgressSnapshot
		if code := getJSON(t, hs.URL+"/v1/jobs/"+snap.ID+"/progress", &ps); code != http.StatusOK {
			t.Fatalf("progress poll: HTTP %d", code)
		}
		if ps.ID != snap.ID || ps.TraceID != snap.TraceID {
			t.Fatalf("progress identity %q/%q, want %q/%q", ps.ID, ps.TraceID, snap.ID, snap.TraceID)
		}
		p := ps.Progress
		if p.Seq < lastSeq {
			t.Fatalf("seq went backwards: %d after %d", p.Seq, lastSeq)
		}
		if p.LPSolves < lastLP {
			t.Fatalf("lp_solves went backwards: %d after %d", p.LPSolves, lastLP)
		}
		if p.Done {
			t.Fatalf("running job published done=true: %+v", p)
		}
		if p.Seq > lastSeq && p.Seq > 0 {
			advances++
		}
		lastSeq, lastLP = p.Seq, p.LPSolves
		time.Sleep(10 * time.Millisecond)
	}
	if advances < 2 {
		t.Fatalf("progress never advanced twice (last seq %d)", lastSeq)
	}
	if lastLP == 0 {
		t.Fatalf("lp_solves stayed 0 mid-solve")
	}

	// Cancel and require the terminal event on the same endpoint.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+snap.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, hs, snap.ID, serve.StateCanceled, 10*time.Second)

	var final serve.ProgressSnapshot
	getJSON(t, hs.URL+"/v1/jobs/"+snap.ID+"/progress", &final)
	if !final.Progress.Done || final.Progress.Status != string(serve.StateCanceled) {
		t.Fatalf("terminal progress = %+v, want done=true status=canceled", final.Progress)
	}
	if final.Progress.Seq <= lastSeq {
		t.Fatalf("terminal seq %d did not advance past %d", final.Progress.Seq, lastSeq)
	}
}

// TestEventsStream reads the SSE endpoint end to end: events arrive with
// strictly increasing sequence numbers and the stream terminates itself
// on the Done event.
func TestEventsStream(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	snap, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != snap.TraceID {
		t.Fatalf("X-Trace-Id = %q, want %q", got, snap.TraceID)
	}

	var events []serve.ProgressSnapshot
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev serve.ProgressSnapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	// The server closes the stream after Done; the scanner just ends.
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no SSE events before stream end")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Progress.Seq <= events[i-1].Progress.Seq {
			t.Fatalf("event %d seq %d not above %d", i, events[i].Progress.Seq, events[i-1].Progress.Seq)
		}
	}
	last := events[len(events)-1]
	if !last.Progress.Done || last.Progress.Status != string(serve.StateDone) {
		t.Fatalf("final event = %+v, want done=true status=done", last.Progress)
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

// TestCacheHitTerminalProgress: a cache-served job must still expose a
// terminal progress snapshot so SSE/poll clients terminate.
func TestCacheHitTerminalProgress(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	first, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, first.ID, serve.StateDone, 2*time.Minute)

	second, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	if second.State != serve.StateDone {
		t.Fatalf("cache hit state %q, want done", second.State)
	}
	var ps serve.ProgressSnapshot
	if code := getJSON(t, hs.URL+"/v1/jobs/"+second.ID+"/progress", &ps); code != http.StatusOK {
		t.Fatalf("progress: HTTP %d", code)
	}
	if !ps.Progress.Done || ps.Progress.Status != string(serve.StateDone) {
		t.Fatalf("cache-hit progress = %+v, want done=true status=done", ps.Progress)
	}
	if second.TraceID == first.TraceID {
		t.Fatal("cache hit reused the original trace ID; wants its own")
	}
}
