package serve_test

import (
	"agingfp/internal/serve"
	"bufio"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"agingfp/internal/telemetry"
)

func openPipeline(t *testing.T, cfg telemetry.Config) *telemetry.Pipeline {
	t.Helper()
	p, err := telemetry.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestStatsAndDashEndpoints runs real jobs through the full pipeline:
// solve + cache hit land as wide events, /v1/stats serves the windowed
// summary, /debug/dash renders it, and a restarted pipeline (new process
// over the same directory) still answers with the same history.
func TestStatsAndDashEndpoints(t *testing.T) {
	dir := t.TempDir()
	p := openPipeline(t, telemetry.Config{Dir: dir})
	_, hs, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p})

	snap, code := postJob(t, hs, `{"bench": "B1", "seed": 41}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)
	// Byte-identical resubmission: a cache-hit wide event.
	if again, _ := postJob(t, hs, `{"bench": "B1", "seed": 41}`); again.State != serve.StateDone {
		t.Fatalf("resubmit not served from cache: %q", again.State)
	}

	var st telemetry.WindowStats
	if code := getJSON(t, hs.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("/v1/stats: HTTP %d", code)
	}
	if st.Jobs != 2 || st.Total.Solved != 1 || st.Total.CacheHits != 1 {
		t.Fatalf("stats jobs/solved/hits = %d/%d/%d, want 2/1/1", st.Jobs, st.Total.Solved, st.Total.CacheHits)
	}
	if st.Total.P50Ms <= 0 {
		t.Fatalf("p50 = %g, want the real solve's latency", st.Total.P50Ms)
	}
	if _, ok := st.Benchmarks["B1"]; !ok {
		t.Fatalf("stats missing B1 benchmark breakdown: %v", st.Benchmarks)
	}
	if len(st.Shapes) == 0 {
		t.Fatal("stats missing shape buckets")
	}

	// Explicit window parses; garbage is a 400.
	if code := getJSON(t, hs.URL+"/v1/stats?window=5m", &st); code != http.StatusOK {
		t.Fatalf("/v1/stats?window=5m: HTTP %d", code)
	}
	if code := getJSON(t, hs.URL+"/v1/stats?window=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad window: HTTP %d, want 400", code)
	}

	resp, err := http.Get(hs.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("/debug/dash: HTTP %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "solve telemetry") || !strings.Contains(string(body), "B1") {
		t.Fatalf("dashboard lacks content:\n%.400s", body)
	}

	// Restart: a fresh pipeline over the same directory replays the
	// durable store, so the history survives the process.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := openPipeline(t, telemetry.Config{Dir: dir})
	_, hs2, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p2})
	var st2 telemetry.WindowStats
	if code := getJSON(t, hs2.URL+"/v1/stats?window=1h", &st2); code != http.StatusOK {
		t.Fatalf("post-restart /v1/stats: HTTP %d", code)
	}
	if st2.Jobs != 2 || st2.Total.Solved != 1 {
		t.Fatalf("post-restart jobs/solved = %d/%d, want 2/1", st2.Jobs, st2.Total.Solved)
	}
}

func TestStatsWithoutTelemetry404s(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	if code := getJSON(t, hs.URL+"/v1/stats", nil); code != http.StatusNotFound {
		t.Fatalf("/v1/stats without pipeline: HTTP %d, want 404", code)
	}
	if code := getJSON(t, hs.URL+"/debug/dash", nil); code != http.StatusNotFound {
		t.Fatalf("/debug/dash without pipeline: HTTP %d, want 404", code)
	}
}

// TestSlowSolveAutoCapture seeds the pipeline with a fast synthetic
// population for B1's exact shape, then runs a real solve: it is orders
// of magnitude slower than the synthetic P99, so its flight journal
// must land in <dir>/slow/ without anyone asking.
func TestSlowSolveAutoCapture(t *testing.T) {
	dir := t.TempDir()
	p := openPipeline(t, telemetry.Config{Dir: dir})
	_, hs, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p})

	// Learn B1's shape from a first solve, then synthesize the fast
	// population in that bucket.
	snap, _ := postJob(t, hs, `{"bench": "B1", "seed": 51}`)
	waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)
	var res serve.JobResult
	if code := getJSON(t, hs.URL+"/v1/jobs/"+snap.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if res.Ops <= 0 || res.Contexts <= 0 {
		t.Fatalf("result lacks workload shape: ops %d contexts %d", res.Ops, res.Contexts)
	}
	// The first real solve sits in the same bucket; 199 fast events put
	// the bucket's P99 among them, past the 20-sample minimum.
	for i := 0; i < 199; i++ {
		p.Record(&telemetry.SolveEvent{
			Time: time.Now(), Source: telemetry.SourceServe,
			Bench: "B1", Ops: res.Ops, Contexts: res.Contexts,
			Status: "done", ElapsedMs: 0.001,
		})
	}

	snap2, _ := postJob(t, hs, `{"bench": "B1", "seed": 52}`)
	waitState(t, hs, snap2.ID, serve.StateDone, 30*time.Second)

	entries, err := os.ReadDir(filepath.Join(dir, "slow"))
	if err != nil {
		t.Fatalf("no slow-capture directory: %v", err)
	}
	found := false
	for _, e := range entries {
		if e.Name() == snap2.ID+".journal.json" {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow solve %s not captured; dir has %v", snap2.ID, entries)
	}
}

// TestSSEKeepAlive parks a job in the queue behind a busy worker and
// watches its event stream: with no progress to report, the server must
// still emit `: keep-alive` comment frames at the keep-alive interval.
func TestSSEKeepAlive(t *testing.T) {
	// Restored after the server closes: cleanups run last-in first-out.
	t.Cleanup(serve.SetSSEKeepAlive(40 * time.Millisecond))
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	running, code := postJob(t, hs, slowDocument())
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, running.ID, serve.StateRunning, 10*time.Second)
	queued, code := postJob(t, hs, `{"bench": "B2"}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", code)
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/" + queued.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read frames until a keep-alive comment shows up; the queued job
	// publishes nothing, so only the ticker can produce one.
	type lineOrErr struct {
		line string
		err  error
	}
	lines := make(chan lineOrErr, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- lineOrErr{line: sc.Text()}
		}
		lines <- lineOrErr{err: io.EOF}
	}()
	deadline := time.After(5 * time.Second)
	sawKeepAlive := false
	for !sawKeepAlive {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatalf("stream ended before keep-alive: %v", l.err)
			}
			if strings.HasPrefix(l.line, ": keep-alive") {
				sawKeepAlive = true
			}
		case <-deadline:
			t.Fatal("no keep-alive frame within 5s at a 40ms interval")
		}
	}

	// Unblock the worker so cleanup drains fast.
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

func TestCacheEvictionMetrics(t *testing.T) {
	_, hs, reg := testServer(t, serve.Config{Workers: 1, CacheEntries: 1})

	first, _ := postJob(t, hs, `{"bench": "B1", "seed": 61}`)
	waitState(t, hs, first.ID, serve.StateDone, 30*time.Second)
	if got := reg.Gauge(`agingfp_serve_cache_entries`).Value(); got != 1 {
		t.Fatalf("cache entries gauge = %g, want 1", got)
	}
	if got := reg.Counter(`agingfp_serve_cache_evictions_total`).Value(); got != 0 {
		t.Fatalf("evictions before overflow = %d, want 0", got)
	}

	second, _ := postJob(t, hs, `{"bench": "B1", "seed": 62}`)
	waitState(t, hs, second.ID, serve.StateDone, 30*time.Second)
	if got := reg.Counter(`agingfp_serve_cache_evictions_total`).Value(); got != 1 {
		t.Fatalf("evictions after overflow = %d, want 1", got)
	}
	if got := reg.Gauge(`agingfp_serve_cache_entries`).Value(); got != 1 {
		t.Fatalf("cache entries gauge after eviction = %g, want 1 (bounded)", got)
	}

	// The first job's entry was evicted: an identical resubmission must
	// miss and re-run rather than hit.
	resubmit, _ := postJob(t, hs, `{"bench": "B1", "seed": 61}`)
	if resubmit.State == serve.StateDone {
		t.Fatal("evicted entry served a cache hit")
	}
	waitState(t, hs, resubmit.ID, serve.StateDone, 30*time.Second)
}
