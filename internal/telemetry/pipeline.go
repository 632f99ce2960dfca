package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"agingfp/internal/obs"
)

// Config sizes the telemetry pipeline.
type Config struct {
	// Dir is the durable store directory, bounded by
	// DefaultMaxSegmentBytes × DefaultMaxSegments. Required. The
	// aggregation ring is DefaultStep × DefaultCells (3h at minute
	// granularity) with DefaultAccuracy quantile sketches.
	Dir string

	// Observers are invoked for every event the pipeline accepts — both
	// the durable history replayed at Open and every live Record — after
	// the event is folded into the aggregation ring. The SLO engine
	// subscribes here, so its error budgets survive restarts exactly as
	// far back as the store does. Observers must be fast and must not
	// call back into the pipeline.
	Observers []func(*SolveEvent)

	// Registry receives the pipeline counters; Logger the store-recovery
	// and slow-solve records. Both may be nil.
	Registry *obs.Registry
	Logger   *slog.Logger

	// Now injects a clock for tests (nil = time.Now).
	Now func() time.Time
}

// DefaultWindow is the trailing window slow-solve capture compares a
// solve against, and the default window of GET /v1/stats.
const DefaultWindow = 15 * time.Minute

// Slow-solve capture: a solve slower than the slowPercentile latency of
// its shape bucket over DefaultWindow, once the bucket holds
// slowMinSamples solved jobs, is an outlier, and its flight journal is
// written to Dir/slow/. The newest slowKeep captures are kept.
const (
	slowPercentile = 0.99
	slowMinSamples = 20
	slowKeep       = 32
)

// Outcome is what Record reports back about one event: whether the
// solve was a slow outlier for its shape (the caller should capture its
// flight journal).
type Outcome struct {
	Slow          bool
	SlowThreshold float64 // ms; the percentile the solve exceeded
}

// Pipeline is the assembled telemetry flow: durable store + windowed
// aggregator + slow-solve capture directory. A nil
// *Pipeline is a no-op on every method, so callers wire it
// unconditionally.
type Pipeline struct {
	cfg   Config
	store *Store
	agg   *Aggregator
	reg   *obs.Registry
	// replaySkipped counts malformed store lines dropped during the
	// open-time replay; surfaced in WindowStats and as
	// agingfp_telemetry_replay_skipped_total.
	replaySkipped int64
}

// Open builds the pipeline: opens (or creates) the durable store under
// cfg.Dir, replays its history into the aggregation ring so windowed
// statistics survive restarts.
func Open(cfg Config) (*Pipeline, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("telemetry: Config.Dir is required")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	store, err := OpenStore(cfg.Dir, DefaultMaxSegmentBytes, DefaultMaxSegments)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:   cfg,
		store: store,
		agg:   NewAggregator(DefaultStep, DefaultCells, DefaultAccuracy, cfg.Now),
		reg:   cfg.Registry,
	}
	replayed, skipped, err := store.Replay(func(ev *SolveEvent) error {
		p.agg.Record(ev)
		for _, fn := range cfg.Observers {
			fn(ev)
		}
		return nil
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	p.replaySkipped = int64(skipped)
	p.reg.Counter("agingfp_telemetry_events_replayed_total").Add(int64(replayed))
	p.reg.Counter("agingfp_telemetry_replay_skipped_total").Add(int64(skipped))
	if cfg.Logger != nil && (replayed > 0 || skipped > 0 || store.RecoveredBytes() > 0) {
		cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "telemetry store recovered",
			slog.String("dir", cfg.Dir),
			slog.Int("events_replayed", replayed),
			slog.Int("lines_skipped", skipped),
			slog.Int64("torn_tail_bytes", store.RecoveredBytes()),
		)
	}
	return p, nil
}

// Record appends ev to the durable store and folds it into the
// windowed aggregates, then evaluates slow-solve capture (against the
// shape bucket's percentile as it stood BEFORE this event, so the
// outlier cannot raise its own bar).
// Store failures are counted, logged, and swallowed — telemetry never
// fails the job that emitted the event.
func (p *Pipeline) Record(ev *SolveEvent) Outcome {
	if p == nil || ev == nil {
		return Outcome{}
	}
	if ev.Time.IsZero() {
		ev.Time = p.cfg.Now()
	}

	var out Outcome
	if ev.Solved() {
		threshold, samples := p.agg.ShapeQuantile(ev.ShapeBucket(), slowPercentile, DefaultWindow)
		if samples >= slowMinSamples && ev.ElapsedMs > threshold {
			out.Slow, out.SlowThreshold = true, threshold
		}
	}

	if err := p.store.Append(ev); err != nil {
		p.reg.Counter("agingfp_telemetry_append_errors_total").Inc()
		if p.cfg.Logger != nil {
			p.cfg.Logger.Warn("telemetry append failed", slog.String("error", err.Error()))
		}
	}
	p.reg.Counter("agingfp_telemetry_events_total").Inc()
	p.agg.Record(ev)
	for _, fn := range p.cfg.Observers {
		fn(ev)
	}
	return out
}

// Stats summarizes the trailing window. Nil on a nil pipeline.
func (p *Pipeline) Stats(window time.Duration) *WindowStats {
	if p == nil {
		return nil
	}
	st := p.agg.Stats(window)
	st.ReplaySkipped = p.replaySkipped
	return st
}

// TenantStats summarizes one tenant's windowed accounting view. Nil on
// a nil pipeline.
func (p *Pipeline) TenantStats(tenant string, window time.Duration) *TenantWindow {
	if p == nil {
		return nil
	}
	return p.agg.TenantStats(tenant, window)
}

// MedianSolveMs is the windowed P50 solve time in milliseconds (0 with
// no solved traffic or a nil pipeline) — the Retry-After estimator's
// input.
func (p *Pipeline) MedianSolveMs(window time.Duration) float64 {
	if p == nil {
		return 0
	}
	return p.agg.Stats(window).Total.P50Ms
}

// Series exposes the aggregator's per-cell time series for dashboards.
func (p *Pipeline) Series(window time.Duration) []SeriesPoint {
	if p == nil {
		return nil
	}
	return p.agg.Series(window)
}

// Window is the slow-capture comparison window, also the default
// window of GET /v1/stats (DefaultWindow; 0 on a nil pipeline).
func (p *Pipeline) Window() time.Duration {
	if p == nil {
		return 0
	}
	return DefaultWindow
}

// slowDir is where captured outlier journals land.
func (p *Pipeline) slowDir() string { return filepath.Join(p.cfg.Dir, "slow") }

// CaptureSlow persists one slow solve's flight journal under
// Dir/slow/<name>.journal.json so the outlier's decision log is already
// on disk when an operator investigates. write receives the
// destination; the oldest captures beyond slowKeep are pruned. Errors
// are logged and swallowed (capture is best-effort).
func (p *Pipeline) CaptureSlow(name string, write func(io.Writer) error) string {
	if p == nil || write == nil {
		return ""
	}
	dir := p.slowDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		p.captureFailed(err)
		return ""
	}
	path := filepath.Join(dir, name+".journal.json")
	f, err := os.Create(path)
	if err != nil {
		p.captureFailed(err)
		return ""
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(path)
		if werr == nil {
			werr = cerr
		}
		p.captureFailed(werr)
		return ""
	}
	p.reg.Counter("agingfp_telemetry_slow_captures_total").Inc()
	p.pruneSlow()
	return path
}

func (p *Pipeline) captureFailed(err error) {
	p.reg.Counter("agingfp_telemetry_capture_errors_total").Inc()
	if p.cfg.Logger != nil {
		p.cfg.Logger.Warn("slow-solve capture failed", slog.String("error", err.Error()))
	}
}

// pruneSlow keeps the newest slowKeep captured journals.
func (p *Pipeline) pruneSlow() {
	entries, err := os.ReadDir(p.slowDir())
	if err != nil || len(entries) <= slowKeep {
		return
	}
	type aged struct {
		name string
		mod  time.Time
	}
	var files []aged
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{e.Name(), info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for i := 0; i < len(files)-slowKeep; i++ {
		os.Remove(filepath.Join(p.slowDir(), files[i].name))
	}
}

// Close seals the durable store.
func (p *Pipeline) Close() error {
	if p == nil {
		return nil
	}
	return p.store.Close()
}
