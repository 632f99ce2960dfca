package telemetry

import (
	"sort"
	"sync"
	"time"
)

// bucketStats accumulates one slice of traffic (one ring cell × one
// grouping key): throughput counters plus quantile sketches over the
// solve-time and solver-effort distributions. Only events that actually
// ran the solver to completion feed the sketches (see SolveEvent.solved)
// — cache replays and canceled jobs would poison latency percentiles.
type bucketStats struct {
	alpha float64

	jobs      int64
	failures  int64
	canceled  int64
	cacheHits int64
	// Per-tier cache-hit counts (exact vs semantic), keyed off the
	// event's SolveKind so per-tenant hit rates can say which tier is
	// doing the work.
	exactHits    int64
	semanticHits int64

	elapsedMs    *Sketch
	queueWaitMs  *Sketch
	simplexIters *Sketch
	lpSolves     *Sketch
	// phases holds per-kernel-phase solve-time sketches, keyed by
	// flight's phase names. Lazy: allocated only when profiled events
	// arrive, so unprofiled deployments pay nothing.
	phases map[string]*Sketch
}

func newBucketStats(alpha float64) *bucketStats {
	return &bucketStats{
		alpha:        alpha,
		elapsedMs:    NewSketch(alpha),
		queueWaitMs:  NewSketch(alpha),
		simplexIters: NewSketch(alpha),
		lpSolves:     NewSketch(alpha),
	}
}

func (b *bucketStats) phase(name string) *Sketch {
	sk := b.phases[name]
	if sk == nil {
		if b.phases == nil {
			b.phases = make(map[string]*Sketch, 6)
		}
		sk = NewSketch(b.alpha)
		b.phases[name] = sk
	}
	return sk
}

func (b *bucketStats) record(ev *SolveEvent) {
	b.jobs++
	switch {
	case ev.CacheHit:
		b.cacheHits++
		switch ev.SolveKind {
		case "exact_hit":
			b.exactHits++
		case "semantic_hit":
			b.semanticHits++
		}
	case ev.Failed():
		b.failures++
	case ev.Canceled():
		b.canceled++
	}
	if ev.QueueWaitMs > 0 {
		b.queueWaitMs.Add(ev.QueueWaitMs)
	}
	if ev.Solved() {
		b.elapsedMs.Add(ev.ElapsedMs)
		b.simplexIters.Add(float64(ev.SimplexIters))
		b.lpSolves.Add(float64(ev.LPSolves))
		for name, ms := range ev.PhaseMs() {
			b.phase(name).Add(ms)
		}
	}
}

func (b *bucketStats) merge(o *bucketStats) {
	b.jobs += o.jobs
	b.failures += o.failures
	b.canceled += o.canceled
	b.cacheHits += o.cacheHits
	b.exactHits += o.exactHits
	b.semanticHits += o.semanticHits
	b.elapsedMs.Merge(o.elapsedMs)
	b.queueWaitMs.Merge(o.queueWaitMs)
	b.simplexIters.Merge(o.simplexIters)
	b.lpSolves.Merge(o.lpSolves)
	for name, sk := range o.phases {
		b.phase(name).Merge(sk)
	}
}

// cell is one time slot of the ring, or the merge of a window's
// slots: totals plus per-shape-bucket, per-benchmark, and per-tenant
// breakdowns.
type cell struct {
	total   *bucketStats
	shapes  map[string]*bucketStats
	benches map[string]*bucketStats
	tenants map[string]*bucketStats
}

func newCell(alpha float64) cell {
	return cell{
		total:   newBucketStats(alpha),
		shapes:  make(map[string]*bucketStats),
		benches: make(map[string]*bucketStats),
		tenants: make(map[string]*bucketStats),
	}
}

// bucket returns the breakdown entry for key, created on first use.
func bucket(m map[string]*bucketStats, key string, alpha float64) *bucketStats {
	b := m[key]
	if b == nil {
		b = newBucketStats(alpha)
		m[key] = b
	}
	return b
}

// DefaultTenantCap bounds the distinct tenant identities the aggregator
// (and the serve metric labels) will track before rolling overflow into
// "other". Tenants are client-controlled strings, so without a cap one
// misbehaving client could grow the label set — and every Prometheus
// time series behind it — without bound.
const DefaultTenantCap = 32

// TenantOther is the rollup identity for tenants past the cap.
const TenantOther = "other"

// TenantTracker bounds tenant-label cardinality: the first
// DefaultTenantCap distinct identities are admitted verbatim (admission
// order — a pragmatic "top-K" under the assumption that steady tenants
// appear early and churn is the attack), everything later maps to
// TenantOther. Safe for concurrent use; the zero value must not be used
// (NewTenantTracker).
type TenantTracker struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

// NewTenantTracker builds a tracker admitting up to DefaultTenantCap
// identities.
func NewTenantTracker() *TenantTracker {
	return &TenantTracker{seen: make(map[string]struct{}, DefaultTenantCap)}
}

// Label maps a tenant identity to its bounded label: the identity
// itself while the cap holds, TenantOther past it. Empty stays empty
// (CLI events carry no tenant).
func (t *TenantTracker) Label(tenant string) string {
	if t == nil || tenant == "" {
		return tenant
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.seen[tenant]; ok {
		return tenant
	}
	if len(t.seen) < DefaultTenantCap {
		t.seen[tenant] = struct{}{}
		return tenant
	}
	return TenantOther
}

// Aggregator maintains a Ring of time cells (Step wide, Cells long)
// holding windowed traffic statistics. Events are slotted by their own
// timestamps — so replaying the durable store after a restart rebuilds
// exactly the history the previous process had — and queries merge the
// cells inside the requested window.
//
// All methods are safe for concurrent use.
type Aggregator struct {
	alpha float64
	now   func() time.Time

	// tenants bounds the per-tenant breakdown's key set at
	// DefaultTenantCap. Live events arrive with serve's own rollup
	// already applied, so this second tracker is a backstop against
	// hand-written stores and history replayed across restarts.
	tenants *TenantTracker

	mu   sync.Mutex
	ring *Ring[cell]
}

const (
	// DefaultStep is the aggregation cell width.
	DefaultStep = time.Minute
	// DefaultCells is the ring length: 180 one-minute cells = 3 hours of
	// windowed history (the durable store keeps far more; the ring is
	// what /v1/stats can query).
	DefaultCells = 180
)

// NewAggregator builds a ring of cells Step wide. now is the clock used
// to resolve query windows (nil = time.Now; tests inject their own).
func NewAggregator(step time.Duration, cells int, alpha float64, now func() time.Time) *Aggregator {
	if step <= 0 {
		step = DefaultStep
	}
	if cells < 2 {
		cells = DefaultCells
	}
	if now == nil {
		now = time.Now
	}
	return &Aggregator{alpha: alpha, now: now, tenants: NewTenantTracker(), ring: NewRing[cell](step, cells)}
}

// Span is the total history the ring can hold.
func (a *Aggregator) Span() time.Duration { return a.ring.Span() }

// Record slots ev by its own timestamp. Events older than the cell
// currently occupying their slot are dropped — they are beyond the
// ring's horizon and still live in the durable store.
func (a *Aggregator) Record(ev *SolveEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.ring.Slot(ev.Time)
	if c == nil {
		return // older than the ring horizon
	}
	if c.total == nil {
		*c = newCell(a.alpha)
	}
	c.total.record(ev)
	bucket(c.shapes, ev.ShapeBucket(), a.alpha).record(ev)
	if ev.Bench != "" {
		bucket(c.benches, ev.Bench, a.alpha).record(ev)
	}
	if ev.Tenant != "" {
		bucket(c.tenants, a.tenants.Label(ev.Tenant), a.alpha).record(ev)
	}
}

// BucketSummary is the JSON shape of one aggregated traffic slice.
type BucketSummary struct {
	Jobs      int64 `json:"jobs"`
	Solved    int64 `json:"solved"`
	Failures  int64 `json:"failures"`
	Canceled  int64 `json:"canceled"`
	CacheHits int64 `json:"cache_hits"`
	// Per-tier cache hits and the hit rate over the bucket's jobs — the
	// per-tenant accounting view of who is being served from which tier.
	ExactHits    int64   `json:"exact_hits,omitempty"`
	SemanticHits int64   `json:"semantic_hits,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
	// SolveMsTotal is the exact sum of solved wall-clock in the bucket
	// (sketch sums are exact even though quantiles are approximate) —
	// the resource-attribution figure per-tenant accounting reads.
	SolveMsTotal float64 `json:"solve_ms_total"`

	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms,omitempty"`
	QueueWaitP90Ms float64 `json:"queue_wait_p90_ms,omitempty"`

	SimplexItersP50 float64 `json:"simplex_iters_p50"`
	SimplexItersP99 float64 `json:"simplex_iters_p99"`
	// SimplexItersTotal is the exact windowed sum of simplex iterations
	// — per-tenant totals add up to the aggregate, by construction.
	SimplexItersTotal float64 `json:"simplex_iters_total"`
	LPSolvesP50       float64 `json:"lp_solves_p50"`

	// PhaseP50Ms is the median per-job kernel phase time, keyed by
	// flight's phase names; present only when profiled jobs contributed.
	PhaseP50Ms map[string]float64 `json:"phase_p50_ms,omitempty"`
}

func summarize(b *bucketStats) BucketSummary {
	out := BucketSummary{
		Jobs:              b.jobs,
		Solved:            b.elapsedMs.Count(),
		Failures:          b.failures,
		Canceled:          b.canceled,
		CacheHits:         b.cacheHits,
		ExactHits:         b.exactHits,
		SemanticHits:      b.semanticHits,
		P50Ms:             b.elapsedMs.Quantile(0.50),
		P90Ms:             b.elapsedMs.Quantile(0.90),
		P99Ms:             b.elapsedMs.Quantile(0.99),
		MaxMs:             b.elapsedMs.Max(),
		MeanMs:            b.elapsedMs.Mean(),
		SolveMsTotal:      b.elapsedMs.Sum(),
		QueueWaitP50Ms:    b.queueWaitMs.Quantile(0.50),
		QueueWaitP90Ms:    b.queueWaitMs.Quantile(0.90),
		SimplexItersP50:   b.simplexIters.Quantile(0.50),
		SimplexItersP99:   b.simplexIters.Quantile(0.99),
		SimplexItersTotal: b.simplexIters.Sum(),
		LPSolvesP50:       b.lpSolves.Quantile(0.50),
	}
	if b.jobs > 0 {
		out.CacheHitRate = float64(b.cacheHits) / float64(b.jobs)
	}
	if len(b.phases) > 0 {
		out.PhaseP50Ms = make(map[string]float64, len(b.phases))
		for name, sk := range b.phases {
			out.PhaseP50Ms[name] = sk.Quantile(0.50)
		}
	}
	return out
}

// WindowStats is the GET /v1/stats payload: totals, rates, and the
// per-shape-bucket and per-benchmark percentile breakdowns for one
// trailing window.
type WindowStats struct {
	Window string    `json:"window"`
	Step   string    `json:"step"`
	Since  time.Time `json:"since"`
	Until  time.Time `json:"until"`

	Jobs         int64   `json:"jobs"`
	JobsPerMin   float64 `json:"jobs_per_min"`
	FailureRate  float64 `json:"failure_rate"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`

	Total      BucketSummary            `json:"total"`
	Shapes     map[string]BucketSummary `json:"shapes,omitempty"`
	Benchmarks map[string]BucketSummary `json:"benchmarks,omitempty"`
	// Tenants breaks the window down by accounting identity (serve's
	// X-Tenant, bounded to the tenant cap + "other"). Present only when
	// tenant-attributed events contributed.
	Tenants map[string]BucketSummary `json:"tenants,omitempty"`

	// ReplaySkipped counts malformed store lines skipped when the
	// pipeline replayed its durable history at open — nonzero means the
	// windowed statistics are missing events a past process wrote.
	ReplaySkipped int64 `json:"replay_skipped,omitempty"`
}

// merge folds every cell inside the trailing window ending at now into
// one, visiting the cells in slot order.
func (a *Aggregator) merge(now time.Time, window time.Duration) cell {
	m := newCell(a.alpha)
	into := func(dst, src map[string]*bucketStats) {
		for k, b := range src {
			bucket(dst, k, a.alpha).merge(b)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ring.Each(now, window, func(c *cell) {
		m.total.merge(c.total)
		into(m.shapes, c.shapes)
		into(m.benches, c.benches)
		into(m.tenants, c.tenants)
	})
	return m
}

// summarizeAll summarizes each entry of a breakdown; nil when empty.
func summarizeAll(m map[string]*bucketStats) map[string]BucketSummary {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]BucketSummary, len(m))
	for k, b := range m {
		out[k] = summarize(b)
	}
	return out
}

// Stats merges every cell inside the trailing window (clamped to the
// ring span) into one summary document.
func (a *Aggregator) Stats(window time.Duration) *WindowStats {
	window = a.ring.Clamp(window)
	now := a.now()
	m := a.merge(now, window)
	total := m.total
	out := &WindowStats{
		Window:         window.String(),
		Step:           a.ring.Step().String(),
		Since:          now.Add(-window),
		Until:          now,
		Jobs:           total.jobs,
		JobsPerMin:     float64(total.jobs) / window.Minutes(),
		QueueWaitP50Ms: total.queueWaitMs.Quantile(0.50),
		QueueWaitP99Ms: total.queueWaitMs.Quantile(0.99),
		Total:          summarize(total),
		Shapes:         summarizeAll(m.shapes),
		Benchmarks:     summarizeAll(m.benches),
		Tenants:        summarizeAll(m.tenants),
	}
	if total.jobs > 0 {
		out.FailureRate = float64(total.failures) / float64(total.jobs)
		out.CacheHitRate = float64(total.cacheHits) / float64(total.jobs)
	}
	return out
}

// TenantWindow is the GET /v1/stats?tenant= payload: one tenant's
// windowed accounting summary.
type TenantWindow struct {
	Tenant  string        `json:"tenant"`
	Window  string        `json:"window"`
	Since   time.Time     `json:"since"`
	Until   time.Time     `json:"until"`
	Summary BucketSummary `json:"summary"`
}

// TenantStats summarizes one tenant over the trailing window, from the
// same merge Stats reads. A tenant with no traffic in the window
// returns a zero summary (the identity is echoed back, so the response
// is still self-describing).
func (a *Aggregator) TenantStats(tenant string, window time.Duration) *TenantWindow {
	window = a.ring.Clamp(window)
	now := a.now()
	b := a.merge(now, window).tenants[tenant]
	if b == nil {
		b = newBucketStats(a.alpha)
	}
	return &TenantWindow{
		Tenant:  tenant,
		Window:  window.String(),
		Since:   now.Add(-window),
		Until:   now,
		Summary: summarize(b),
	}
}

// ShapeQuantile returns the q-th solve-time quantile (ms) for one shape
// bucket over the trailing window, with the number of solved samples
// behind it — the slow-solve capture threshold.
func (a *Aggregator) ShapeQuantile(shape string, q float64, window time.Duration) (ms float64, samples int64) {
	now := a.now()
	merged := NewSketch(a.alpha)
	a.mu.Lock()
	a.ring.Each(now, window, func(c *cell) {
		if b := c.shapes[shape]; b != nil {
			merged.Merge(b.elapsedMs)
		}
	})
	a.mu.Unlock()
	return merged.Quantile(q), merged.Count()
}

// SeriesPoint is one ring cell rendered for the dashboard sparklines.
type SeriesPoint struct {
	Start    time.Time `json:"start"`
	Jobs     int64     `json:"jobs"`
	Failures int64     `json:"failures"`
	P90Ms    float64   `json:"p90_ms"`
}

// Series returns one point per cell across the trailing window, oldest
// first, empty cells included as zeros — the dashboard's time axis.
func (a *Aggregator) Series(window time.Duration) []SeriesPoint {
	step := a.ring.Step()
	n := max(int(a.ring.Clamp(window)/step), 1)
	end := a.now().Truncate(step)
	out := make([]SeriesPoint, 0, n)
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := n - 1; i >= 0; i-- {
		start := end.Add(-time.Duration(i) * step)
		p := SeriesPoint{Start: start}
		if c := a.ring.At(start); c != nil {
			p.Jobs = c.total.jobs
			p.Failures = c.total.failures
			p.P90Ms = c.total.elapsedMs.Quantile(0.90)
		}
		out = append(out, p)
	}
	return out
}

// ShapeHeat coarsens the trailing window into at most cols time slices
// and returns, per shape bucket seen in the window, the job count per
// slice — the dashboard heatmap's matrix. Row labels (shapes, sorted),
// column labels (slice start times, HH:MM), and vals[row][col] align.
func (a *Aggregator) ShapeHeat(window time.Duration, cols int) (shapes, colLabels []string, vals [][]float64) {
	if cols < 1 {
		cols = 1
	}
	step := a.ring.Step()
	cells := max(int(a.ring.Clamp(window)/step), 1)
	perCol := (cells + cols - 1) / cols
	nCols := (cells + perCol - 1) / perCol

	end := a.now().Truncate(step)
	counts := map[string][]float64{} // shape -> per-column jobs
	colLabels = make([]string, nCols)
	a.mu.Lock()
	for col := 0; col < nCols; col++ {
		// Columns run oldest to newest; each spans perCol cells. A cell's
		// offset d counts steps back from the newest cell (d = 0).
		dLow := (nCols - 1 - col) * perCol
		dHigh := min(dLow+perCol-1, cells-1)
		colLabels[col] = end.Add(-time.Duration(dHigh) * step).Format("15:04")
		for d := dLow; d <= dHigh; d++ {
			c := a.ring.At(end.Add(-time.Duration(d) * step))
			if c == nil {
				continue
			}
			for shape, b := range c.shapes {
				if counts[shape] == nil {
					counts[shape] = make([]float64, nCols)
				}
				counts[shape][col] += float64(b.jobs)
			}
		}
	}
	a.mu.Unlock()

	shapes = make([]string, 0, len(counts))
	for s := range counts {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	vals = make([][]float64, len(shapes))
	for i, s := range shapes {
		vals[i] = counts[s]
	}
	return shapes, colLabels, vals
}
