package telemetry

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"agingfp/internal/obs"
)

func testPipeline(t *testing.T, cfg Config) *Pipeline {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Now == nil {
		clock := &fixedClock{t: testBase}
		cfg.Now = clock.now
	}
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPipelineBurstAndRestart is the headline durability check: a burst
// of jobs yields windowed percentiles within the sketch's error bound,
// and a restart (even after a crash tears the store's tail) rebuilds the
// same history from disk.
func TestPipelineBurstAndRestart(t *testing.T) {
	dir := t.TempDir()
	clock := &fixedClock{t: testBase}
	cfg := Config{Dir: dir, Now: clock.now, Registry: obs.NewRegistry()}
	p := testPipeline(t, cfg)

	// 500 solves spread over the trailing 10 minutes with a deterministic
	// latency spread.
	next := lcg(99)
	elapsed := make([]float64, 500)
	for i := range elapsed {
		ms := 20 + 980*next() // 20ms..1s
		elapsed[i] = ms
		ev := solvedEvent(testBase.Add(-time.Duration(i%10)*time.Minute), "B1", 88, 16, ms)
		ev.JobID = fmt.Sprintf("job-%06d", i)
		p.Record(ev)
	}
	sort.Float64s(elapsed)

	st := p.Stats(15 * time.Minute)
	if st.Jobs != 500 || st.Total.Solved != 500 {
		t.Fatalf("jobs/solved = %d/%d, want 500/500", st.Jobs, st.Total.Solved)
	}
	for _, q := range []struct {
		name  string
		got   float64
		exact float64
	}{
		{"p50", st.Total.P50Ms, exactQuantile(elapsed, 0.50)},
		{"p90", st.Total.P90Ms, exactQuantile(elapsed, 0.90)},
		{"p99", st.Total.P99Ms, exactQuantile(elapsed, 0.99)},
	} {
		if relErr := math.Abs(q.got-q.exact) / q.exact; relErr > DefaultAccuracy*1.01 {
			t.Errorf("%s = %g, exact %g, relative error %.4f beyond sketch bound", q.name, q.got, q.exact, relErr)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash simulation: tear the active segment's tail, then restart.
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	if len(segs) == 0 {
		t.Fatal("no segments on disk after 500 events")
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"time":"2026-`) //nolint:errcheck
	f.Close()

	reg2 := obs.NewRegistry()
	p2 := testPipeline(t, Config{Dir: dir, Now: clock.now, Registry: reg2})
	if got := reg2.Counter("agingfp_telemetry_events_replayed_total").Value(); got != 500 {
		t.Fatalf("replayed %d events after restart, want 500", got)
	}
	st2 := p2.Stats(15 * time.Minute)
	if st2.Jobs != 500 {
		t.Fatalf("post-restart jobs = %d, want 500", st2.Jobs)
	}
	if st2.Total.P50Ms != st.Total.P50Ms || st2.Total.P99Ms != st.Total.P99Ms {
		t.Fatalf("post-restart percentiles differ: p50 %g vs %g, p99 %g vs %g",
			st2.Total.P50Ms, st.Total.P50Ms, st2.Total.P99Ms, st.Total.P99Ms)
	}
}

func TestPipelineSlowCapture(t *testing.T) {
	dir := t.TempDir()
	p := testPipeline(t, Config{Dir: dir})

	// Build up a baseline population of ~10ms solves for one shape, large
	// enough that its P99 falls among them.
	for i := 0; i < 200; i++ {
		if out := p.Record(solvedEvent(testBase, "B1", 88, 16, 10)); out.Slow {
			t.Fatalf("typical solve %d flagged slow", i)
		}
	}
	// The threshold is computed before the event lands, so this outlier
	// cannot raise its own bar.
	out := p.Record(solvedEvent(testBase, "B1", 88, 16, 1000))
	if !out.Slow {
		t.Fatal("100x outlier not flagged slow")
	}
	if out.SlowThreshold <= 0 || out.SlowThreshold > 20 {
		t.Fatalf("slow threshold %g, want ~10ms population percentile", out.SlowThreshold)
	}
	// A different shape has no population yet — never flagged — and one
	// sample short of slowMinSamples is still too few.
	for i := 0; i < slowMinSamples-1; i++ {
		if out := p.Record(solvedEvent(testBase, "tiny", 4, 2, 1000)); out.Slow {
			t.Fatalf("shape with %d samples flagged slow", i)
		}
	}
	if out := p.Record(solvedEvent(testBase, "tiny", 4, 2, 1e6)); out.Slow {
		t.Fatalf("shape with %d samples flagged slow, want %d first", slowMinSamples-1, slowMinSamples)
	}

	// Capture writes the journal and prunes beyond slowKeep.
	for i := 0; i <= slowKeep; i++ {
		name := fmt.Sprintf("job-%02d", i)
		path := p.CaptureSlow(name, func(w io.Writer) error {
			_, err := io.WriteString(w, `{"events":[]}`)
			return err
		})
		if path == "" {
			t.Fatalf("capture %s failed", name)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "slow"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != slowKeep {
		t.Fatalf("%d captured journals retained, want slowKeep=%d", len(entries), slowKeep)
	}
}

func TestPipelineNilSafe(t *testing.T) {
	var p *Pipeline
	if out := p.Record(solvedEvent(testBase, "B1", 8, 2, 1)); out.Slow {
		t.Fatal("nil Record must return a zero outcome")
	}
	if p.Stats(time.Minute) != nil || p.Series(time.Minute) != nil {
		t.Fatal("nil accessors must return nil")
	}
	if p.CaptureSlow("x", func(io.Writer) error { return nil }) != "" {
		t.Fatal("nil CaptureSlow must be a no-op")
	}
	if p.Window() != 0 || p.Close() != nil {
		t.Fatal("nil pipeline scalar accessors must return zeros")
	}
}

func TestDashboardRenders(t *testing.T) {
	p := testPipeline(t, Config{})
	for i := 0; i < 10; i++ {
		p.Record(solvedEvent(testBase.Add(-time.Duration(i)*time.Minute), "B1", 88, 16, 300))
	}

	html := Dashboard(p, 15*time.Minute, "agingfloord")
	for _, want := range []string{
		"<!DOCTYPE html>",
		"agingfloord solve telemetry",
		"ops&lt;=128,ctx&lt;=16", // shape names are HTML-escaped
		"B1",
		"<svg",                       // sparklines and heatmap inline
		"prefers-color-scheme: dark", // selected dark mode
	} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(html, "<script") {
		t.Fatal("dashboard must not ship scripts")
	}

	// A nil pipeline still renders a (empty) page rather than panicking.
	if empty := Dashboard(nil, time.Minute, "x"); !strings.Contains(empty, "<!DOCTYPE html>") {
		t.Fatal("nil-pipeline dashboard did not render")
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir must fail")
	}
}

// TestReplaySkipCountSurfaced corrupts the durable store between runs:
// the reopened pipeline must skip the bad line, keep the good history,
// and surface the skip count in both the stats document and the
// replay-skip counter so an operator can tell the window is incomplete.
func TestReplaySkipCountSurfaced(t *testing.T) {
	dir := t.TempDir()
	clock := &fixedClock{t: testBase}
	p := testPipeline(t, Config{Dir: dir, Now: clock.now})
	for i := 0; i < 3; i++ {
		p.Record(solvedEvent(testBase, "B1", 20, 4, 100))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no store segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A complete-but-malformed line (a torn tail would be recovery, not
	// a skip), followed by one more good event a later process appended.
	if _, err := f.WriteString("{not json at all\n"); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck

	reg := obs.NewRegistry()
	p2 := testPipeline(t, Config{Dir: dir, Now: clock.now, Registry: reg})
	st := p2.Stats(time.Hour)
	if st.Jobs != 3 {
		t.Fatalf("replayed jobs = %d, want the 3 intact events", st.Jobs)
	}
	if st.ReplaySkipped != 1 {
		t.Fatalf("stats replay_skipped = %d, want 1", st.ReplaySkipped)
	}
	if got := reg.Counter("agingfp_telemetry_replay_skipped_total").Value(); got != 1 {
		t.Fatalf("replay-skip counter = %d, want 1", got)
	}
}
