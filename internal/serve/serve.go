// Package serve hosts the floorplanner as a long-running job service:
// clients submit designs over HTTP/JSON, a bounded worker pool drains a
// FIFO queue, and results are kept in a content-addressed cache so a
// repeated submission is answered byte-identically without re-solving.
//
// The package exists because the context-first solver API makes each
// job independently cancellable: every queued job carries its own
// context (deadline included), and the solver layers below — Remap,
// its context batches, the simplex loops — poll it
// cooperatively, so cancel requests and SIGTERM drains take effect
// mid-solve rather than at the next job boundary.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"agingfp/internal/canon"
	"agingfp/internal/flight"
	"agingfp/internal/obs"
	"agingfp/internal/slo"
	"agingfp/internal/telemetry"
)

// Config sizes the service.
type Config struct {
	// Workers is the solver pool size (default 2). Each worker runs one
	// job at a time; the floorplanner itself may fan out further.
	Workers int
	// QueueDepth bounds the FIFO backlog (default 16). A full queue
	// rejects submissions with ErrQueueFull rather than buffering
	// without bound.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache
	// (default 64, FIFO eviction).
	CacheEntries int
	// DrainTimeout bounds Drain's wait for in-flight jobs before they
	// are force-canceled (default 30s).
	DrainTimeout time.Duration
	// Trace receives the spans of every job a worker runs: one serve.job
	// span carrying the job's job_id and trace_id, with the solver's
	// spans under it. Registry carries the service's and the solver's
	// metrics and backs the /metrics endpoint. Both may be nil.
	Trace    *obs.Tracer
	Registry *obs.Registry
	// Logger receives structured request and job-lifecycle records, every
	// one keyed by the job's trace_id so log lines, span streams, and API
	// responses join on one correlation ID. nil disables logging.
	Logger *slog.Logger
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/
	// on Handler. Off by default: the profiles expose internals, so
	// operators opt in per deployment.
	EnablePprof bool
	// Telemetry is the longitudinal wide-event pipeline: every finished
	// job (cache hits included) emits one durable event, and the
	// pipeline backs GET /v1/stats and GET /debug/dash. nil disables
	// both (the routes answer 404) at zero per-job cost.
	Telemetry *telemetry.Pipeline
	// KernelProfile arms the LP kernel profiler on every job's flight
	// recorder: solves attribute their wall-clock to simplex phases,
	// journals and reports grow a kernel section, and wide events carry
	// per-phase times.
	KernelProfile bool
	// SLO is the service-level-objective engine backing GET /v1/slo and
	// the /debug/dash SLO panel. The server never feeds it directly —
	// events reach it through the telemetry pipeline's observer hook
	// (replayed history included), so the engine requires Telemetry and
	// nil disables the route (404) at zero cost.
	SLO *slo.Engine
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission when the backlog is at
	// QueueDepth (503).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects submissions after Drain began (503).
	ErrDraining = errors.New("serve: server is draining")
	// ErrNotFound reports an unknown job id (404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrNotDone reports a result request for an unfinished job (409).
	ErrNotDone = errors.New("serve: job not finished")
	// ErrNoFlight reports a report request for a job without a flight
	// journal: it was served from the result cache without running the
	// solver (404).
	ErrNoFlight = errors.New("serve: no flight journal for this job")
	// ErrNoTelemetry reports a /v1/stats or /debug/dash request when no
	// telemetry pipeline is configured (404).
	ErrNoTelemetry = errors.New("serve: telemetry disabled")
	// ErrNoSLO reports a /v1/slo request when no SLO engine is
	// configured (404).
	ErrNoSLO = errors.New("serve: slo engine disabled")
)

// JobState is the lifecycle phase of a submitted job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Solve kinds: how a job's answer was (or will be) produced. They are
// provenance, not workload identity — the result bytes are the same
// whichever tier answered.
const (
	solveKindCold     = "cold"
	solveKindExact    = "exact_hit"
	solveKindSemantic = "semantic_hit"
	solveKindDelta    = "delta"
)

// job is the internal record of one submission.
type job struct {
	id        string
	key       string // exact-tier cache key; "" for delta jobs (never cached)
	semKey    string // semantic-tier key; "" for bench and delta jobs
	traceID   string // correlation ID across logs, spans, and the API
	tenant    string // validated accounting identity (raw, pre-rollup)
	req       *JobRequest
	canonForm *canon.Form // queued design jobs: the canonical instance to solve; nil otherwise and once run
	ctx       context.Context
	cancel    context.CancelFunc
	submitted time.Time
	rep       *obs.Reporter    // live solver progress (always non-nil)
	flight    *flight.Recorder // per-job decision journal; nil for cache hits
	span      obs.Span         // the serve.job span while a worker runs the job

	// Delta-job identity, fixed at submission.
	solveKind     string
	baseID        string        // delta jobs: the seeding job's id
	delta         *DeltaRequest // nil unless this is a delta job
	baseArtifacts *solveArtifacts

	mu            sync.Mutex
	state         JobState
	errText       string
	result        []byte
	artifacts     *solveArtifacts // exported after a successful solve (or attached on cache hits)
	deltaFallback string          // cold-fallback reason; "" when the seed was used
	reuse         *ReuseInfo
	cost          *CostReport // attribution, set when the job reaches a terminal state
	started       time.Time
	// finished is set when an ending is claimed (see claimQueued), before
	// finish publishes the terminal state; snapshots report it only then.
	finished time.Time
}

// ReuseInfo reports which of the base job's artifacts a delta re-solve
// actually used — the honest version of "warm": a delta that fell back
// cold says so here and in delta_fallback rather than pretending.
type ReuseInfo struct {
	FrozenReused bool `json:"frozen_reused"`
	BasesSeeded  int  `json:"bases_seeded"`
	BracketHit   bool `json:"bracket_hit"`
}

// CostReport is the per-job resource-attribution block a terminal job
// carries in its snapshot: what the answer cost to produce, wherever it
// was produced. It lives on the Snapshot rather than in the result
// document on purpose — result bytes are a deterministic function of
// the request (the cache contract), and wall-clock cost is not.
type CostReport struct {
	// Tier is the provenance the cost describes: cold, exact_hit,
	// semantic_hit, or delta. Cache tiers cost ~nothing and say so.
	Tier string `json:"tier"`
	// QueueWaitMs is submission-to-worker-pickup; SolveMs the solver
	// wall-clock (zero for cache hits).
	QueueWaitMs float64 `json:"queue_wait_ms"`
	SolveMs     float64 `json:"solve_ms"`
	// Solver-effort counters: the work the hardware actually did.
	LPSolves     int `json:"lp_solves,omitempty"`
	SimplexIters int `json:"simplex_iters,omitempty"`
	STProbes     int `json:"st_probes,omitempty"`
	// PhaseMs breaks the simplex kernel's wall-clock down per phase;
	// present only when kernel profiling was armed for the job.
	PhaseMs map[string]float64 `json:"phase_ms,omitempty"`
}

// costFromEvent derives the attribution block from the job's wide
// event, so the cost block and the telemetry record can never disagree.
func costFromEvent(ev *telemetry.SolveEvent) *CostReport {
	c := &CostReport{
		Tier:         ev.SolveKind,
		QueueWaitMs:  ev.QueueWaitMs,
		SolveMs:      ev.ElapsedMs, // zero for a job no worker ran
		LPSolves:     ev.LPSolves,
		SimplexIters: ev.SimplexIters,
		STProbes:     ev.STProbes,
	}
	if ph := ev.PhaseMs(); len(ph) > 0 {
		c.PhaseMs = ph
	}
	return c
}

// Snapshot is a point-in-time copy of a job's externally visible state.
type Snapshot struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id,omitempty"`
	// Tenant is the accounting identity the job was submitted under
	// (X-Tenant header or request field, defaulted to "anon"). This is
	// the raw validated name — metrics and telemetry may have rolled it
	// into "other" under the cardinality cap, but the job record keeps
	// the truth.
	Tenant string   `json:"tenant,omitempty"`
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
	// SolveKind is how the answer was produced: cold, exact_hit,
	// semantic_hit, or delta.
	SolveKind string `json:"solve_kind,omitempty"`
	// BaseJob names the seeding job for delta submissions.
	BaseJob string `json:"base_job,omitempty"`
	// DeltaFallback carries the reason a delta ran cold ("" = seeded).
	DeltaFallback string     `json:"delta_fallback,omitempty"`
	Reuse         *ReuseInfo `json:"reuse,omitempty"`
	// Cost is the resource-attribution block, present once the job is
	// terminal.
	Cost      *CostReport `json:"cost,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   time.Time   `json:"started,omitempty"`
	Finished  time.Time   `json:"finished,omitempty"`
	// Result is a done job's result document: the bytes GET
	// /v1/jobs/{id}/result serves, byte for byte. Other states carry
	// none.
	Result json.RawMessage `json:"result,omitempty"`
}

func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := Snapshot{
		ID:            j.id,
		TraceID:       j.traceID,
		Tenant:        j.tenant,
		State:         j.state,
		Error:         j.errText,
		SolveKind:     j.solveKind,
		BaseJob:       j.baseID,
		DeltaFallback: j.deltaFallback,
		Reuse:         j.reuse,
		Cost:          j.cost,
		Submitted:     j.submitted,
		Started:       j.started,
	}
	if j.state != StateQueued && j.state != StateRunning {
		snap.Finished = j.finished
	}
	if j.state == StateDone {
		snap.Result = j.result
	}
	return snap
}

// DefaultTenant is the accounting identity of submissions that carry
// none.
const DefaultTenant = "anon"

// resolveTenant validates the submitted tenant identity: empty defaults
// to DefaultTenant; otherwise 1–64 characters of [A-Za-z0-9._-] (a
// metric-label-safe charset, so tenant names never need escaping in
// /metrics or log lines). Anything else is a 400.
func resolveTenant(raw string) (string, error) {
	if raw == "" {
		return DefaultTenant, nil
	}
	if len(raw) > 64 {
		return "", badRequest("serve: tenant %q too long (max 64 characters)", raw)
	}
	for _, r := range raw {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return "", badRequest("serve: tenant %q has invalid character %q (want [A-Za-z0-9._-])", raw, r)
		}
	}
	return raw, nil
}

// newTraceID returns a 16-hex-character random correlation ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; IDs only need
		// uniqueness, so fall back to the time.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Server owns the queue, the worker pool, and the result cache. Create
// with New, wire Handler into an http.Server, and call Drain on
// shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	cache   *resultCache
	tenants *telemetry.TenantTracker // rolls tenant labels past telemetry.DefaultTenantCap into "other"

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *job
	workers    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	nextID   int
	draining bool
}

// New starts a server with cfg.Workers solver goroutines. The pool runs
// until Drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// The solver gets this one tracer for every job. It carries the
	// registry /metrics exposes even when it has no sinks, so the
	// solver's metric families are written with no trace sink too.
	if cfg.Trace == nil {
		cfg.Trace = obs.New()
	}
	cfg.Trace = cfg.Trace.WithMetrics(cfg.Registry)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		cache:      newResultCache(cfg.CacheEntries, cfg.Registry),
		tenants:    telemetry.NewTenantTracker(),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates, caches or enqueues a request and returns the job's
// id. Two cache tiers answer without solver work: an exact tier keyed
// by the re-marshaled request (replays are byte-identical to the
// original run), and under it a semantic tier keyed by the design's
// isomorphism hash — a renumbered-but-structurally-equal resubmission
// misses on bytes but hits on structure, and the stored canonical
// result is re-rendered through the new request's own op permutation.
// ErrQueueFull and ErrDraining report back-pressure; validation
// problems surface as *RequestError.
func (s *Server) Submit(req *JobRequest) (Snapshot, error) {
	tenant, err := resolveTenant(req.Tenant)
	if err != nil {
		return Snapshot{}, err
	}
	key, opts, err := req.exactKey()
	if err != nil {
		return Snapshot{}, err
	}
	j := &job{key: key, tenant: tenant, req: req, solveKind: solveKindCold}
	// The exact tier is looked up before the design is decoded: an entry
	// exists only for a request that already validated (see resultCache),
	// so a hit skips decoding, validation and canonicalization alike.
	hit, _ := s.cache.get(key)
	if hit != nil {
		j.solveKind = solveKindExact
	} else if req.Design != nil {
		// The one decode of a missed design: canon validates it, and its
		// error is arch's own.
		form, err := canon.Canonicalize(req.Design)
		if err != nil {
			return Snapshot{}, badRequest("serve: bad design: %v", err)
		}
		j.semKey = semanticKey(form.Hash, opts.Mode.String(), opts.Seed, timeLimitMs(opts))
		if e, ok := s.cache.getSemantic(j.semKey); ok {
			hit = s.promote(j, form, e)
		}
		if hit == nil {
			j.canonForm = form
		}
	}
	switch {
	case hit == nil:
		s.reg.Counter(`agingfp_serve_cache_misses_total`).Inc()
	case j.solveKind == solveKindSemantic:
		s.reg.Counter(`agingfp_cache_semantic_hits_total`).Inc()
		s.reg.Counter(`agingfp_serve_cache_tier_hits_total{tier="semantic"}`).Inc()
	default:
		s.reg.Counter(`agingfp_serve_cache_hits_total`).Inc()
		s.reg.Counter(`agingfp_serve_cache_tier_hits_total{tier="exact"}`).Inc()
	}
	return s.admit(j, hit, slog.String("bench", req.Bench))
}

// admit is the tail every submission shares: it numbers the job and
// gives it its progress cell, flight recorder and deadline context. A
// job a cache tier answered (hit non-nil) ends at once through finish;
// any other joins the queue. It refuses every job with ErrDraining once
// Drain began, and a queued one with ErrQueueFull when the backlog is
// full.
func (s *Server) admit(j *job, hit *exactEntry, attrs ...slog.Attr) (Snapshot, error) {
	j.traceID = newTraceID()
	j.state = StateQueued
	j.rep = obs.NewReporter()
	// Only jobs that actually run the solver get a flight recorder: a
	// cache hit replays stored bytes, so there are no decisions to
	// journal and the report endpoint answers 404 for it.
	if hit == nil {
		j.flight = flight.NewRecorder(flight.DefaultMaxEvents)
		if s.cfg.KernelProfile {
			j.flight.EnableKernel(0)
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Snapshot{}, ErrDraining
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	j.submitted = time.Now()
	if j.req.DeadlineMs > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, time.Duration(j.req.DeadlineMs)*time.Millisecond)
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	s.reg.Counter(`agingfp_serve_jobs_submitted_total`).Inc()
	if hit != nil {
		// The answer already exists: the job's ending is claimed at
		// submission, and it consumes no queue slot or solver time.
		j.started, j.finished = j.submitted, j.submitted
	} else {
		select {
		case s.queue <- j:
		default:
			s.mu.Unlock()
			j.cancel()
			return Snapshot{}, ErrQueueFull
		}
	}
	s.jobs[j.id] = j
	s.gaugeState(StateQueued, 1)
	s.reg.Gauge(`agingfp_serve_queue_depth`).Set(float64(len(s.queue)))
	s.logJob(j, "job submitted", append(attrs, slog.String("solve_kind", j.solveKind), slog.String("mode", j.req.mode()))...)
	s.mu.Unlock()
	if hit != nil {
		s.finish(j, ending{state: StateDone, hit: hit, result: hit.result, artifacts: s.hitArtifacts(j, hit)})
	}
	return j.snapshot(), nil
}

// promote answers a design job from its semantic entry e: it renders
// the stored canonical result through the op permutation of form, the
// job's canonical form, and stores that in the exact tier, so the next
// identical resubmission hits there. It returns the stored exact entry
// and marks the job a semantic hit — or an exact hit when another
// writer stored the key first (a cold solve of the same bytes that
// finished after Submit's exact lookup). nil means the entry did not
// render — corrupt state, left for a cold solve rather than a failed
// job.
func (s *Server) promote(j *job, form *canon.Form, e *semanticEntry) *exactEntry {
	out, err := renderResult(j.req.Design.Name, form.OpPerm, e.result)
	if err != nil {
		return nil
	}
	stored, fresh := s.cache.put(j.key, &exactEntry{
		result:   out,
		semKey:   j.semKey,
		opPerm:   form.OpPerm,
		ctxPerm:  form.CtxPerm,
		ops:      e.result.ops,
		contexts: e.result.contexts,
	}, nil)
	j.solveKind = solveKindExact
	if fresh {
		j.solveKind = solveKindSemantic
	}
	return stored
}

// tenantLabel is the metric/telemetry label for a job's tenant: the raw
// name while the cardinality cap has room, "other" past it.
func (s *Server) tenantLabel(j *job) string { return s.tenants.Label(j.tenant) }

// accountTenant folds one terminal job into the per-tenant counters.
// agingfp_tenant_solve_seconds_total is a gauge used as a float
// accumulator (the obs counter is integer-only); it only ever goes up.
func (s *Server) accountTenant(label string, final JobState, solveElapsed time.Duration) {
	s.reg.Counter(obs.Labeled(obs.Labeled(`agingfp_tenant_jobs_total`, "tenant", label), "status", string(final))).Inc()
	s.reg.Gauge(obs.Labeled(`agingfp_tenant_solve_seconds_total`, "tenant", label)).Add(solveElapsed.Seconds())
}

// retryAfterSeconds estimates when a rejected submission is worth
// retrying: the current backlog (plus the rejected job) divided across
// the worker pool at the windowed median solve time, clamped to
// [1, 300] seconds. Without telemetry (or traffic) the estimate assumes
// 2s per job — a deliberate overestimate for an idle-history server.
func (s *Server) retryAfterSeconds() int {
	const defaultSolveMs = 2000
	medianMs := s.cfg.Telemetry.MedianSolveMs(s.cfg.Telemetry.Window())
	if medianMs <= 0 {
		medianMs = defaultSolveMs
	}
	backlog := float64(len(s.queue) + 1)
	secs := math.Ceil(backlog * medianMs / 1000 / float64(s.cfg.Workers))
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return int(secs)
}

// hitArtifacts rebinds the delta artifacts of e's semantic entry, when
// it survives, to the numbering of j, the design job e answers, so a
// cache-answered job can still serve as a delta base. nil otherwise.
func (s *Server) hitArtifacts(j *job, e *exactEntry) *solveArtifacts {
	if e.semKey == "" {
		return nil
	}
	se, ok := s.cache.getSemantic(e.semKey)
	if !ok || se.artifacts == nil {
		return nil
	}
	art := *se.artifacts
	art.clientDoc = j.req.Design
	art.opPerm = e.opPerm
	art.ctxPerm = e.ctxPerm
	return &art
}

// gaugeState moves the live per-state job-count gauges: +1 when a job
// enters a state, -1 when it leaves. The terminal states only ever gain,
// so their gauges double as running totals for jobs still in the map.
func (s *Server) gaugeState(st JobState, delta float64) {
	s.reg.Gauge(`agingfp_serve_jobs{state="` + string(st) + `"}`).Add(delta)
}

// logJob emits one structured lifecycle record keyed by the job's IDs.
func (s *Server) logJob(j *job, msg string, attrs ...slog.Attr) {
	if s.cfg.Logger == nil {
		return
	}
	base := []slog.Attr{slog.String("job_id", j.id), slog.String("trace_id", j.traceID)}
	if j.tenant != "" {
		base = append(base, slog.String("tenant", j.tenant))
	}
	s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, msg, append(base, attrs...)...)
}

// Job returns the current snapshot of a job.
func (s *Server) Job(id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// Result returns the finished job's result document (the exact cached
// bytes). ErrNotDone while the job is queued or running; a failed or
// canceled job reports its error instead.
func (s *Server) Result(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed, StateCanceled:
		return nil, fmt.Errorf("serve: job %s %s: %s", id, j.state, j.errText)
	default:
		return nil, ErrNotDone
	}
}

// Cancel requests cooperative cancellation of a job. A queued job is
// canceled at once (the worker will skip it); a running job's context
// is canceled and the solver unwinds within one poll interval.
// Canceling a finished job is a no-op.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	if j.claimQueued() {
		s.finish(j, ending{state: StateCanceled, err: context.Canceled, queueWait: j.finished.Sub(j.submitted)})
	}
	j.cancel()
	return nil
}

// Progress returns the job's latest solver-progress snapshot.
func (s *Server) Progress(id string) (Snapshot, obs.Progress, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, obs.Progress{}, ErrNotFound
	}
	return j.snapshot(), j.rep.Latest(), nil
}

// reporter exposes a job's live progress cell (for the SSE stream).
func (s *Server) reporter(id string) (*obs.Reporter, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return j.rep, nil
}

// FlightJournal snapshots the job's flight-recorder journal. It works
// on live jobs too (the snapshot is consistent mid-solve) and keeps
// working after Drain, so an operator can pull the journal of a job
// that was force-canceled. ErrNoFlight when the job has no recorder: a
// cache-hit job that never ran the solver.
func (s *Server) FlightJournal(id string) (*flight.Journal, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if j.flight == nil {
		return nil, ErrNoFlight
	}
	return j.flight.Snapshot(), nil
}

// Draining reports whether Drain has begun (used by /healthz).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth reports the current backlog length.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Drain stops intake, lets queued and running jobs finish, and returns
// once the pool is idle. Jobs still running after cfg.DrainTimeout are
// force-canceled (they unwind cooperatively and report Canceled).
// Submissions during and after Drain fail with ErrDraining.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.waitWorkers(s.cfg.DrainTimeout)
		return
	}
	s.draining = true
	close(s.queue) // Submit holds s.mu before sending, so no send-after-close
	s.mu.Unlock()

	if !s.waitWorkers(s.cfg.DrainTimeout) {
		s.baseCancel() // force the stragglers to unwind
		s.workers.Wait()
	}
	s.baseCancel()
	// The workers are parked: flush buffered trace sinks now so a
	// SIGTERM-driven drain does not lose the tail of the span stream.
	s.flushTrace()
}

// flushTrace writes out what the tracer's buffered sinks hold; without
// sinks it does nothing.
func (s *Server) flushTrace() {
	if err := s.cfg.Trace.Flush(); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("trace sink flush failed", slog.String("error", err.Error()))
	}
}

func (s *Server) waitWorkers(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.reg.Gauge(`agingfp_serve_queue_depth`).Set(float64(len(s.queue)))
		s.runJob(j)
	}
}

// claimQueued claims the ending of a job no worker has taken. Cancel and
// runJob race for it, and whichever sets finished first ends the job.
// The state stays queued until finish publishes the ending, so finished,
// not the state, marks the claim.
func (j *job) claimQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || !j.finished.IsZero() {
		return false
	}
	j.finished = time.Now()
	return true
}

// runJob executes one job end to end and records the outcome.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if !j.finished.IsZero() {
		j.mu.Unlock() // canceled while queued
		return
	}
	if err := j.ctx.Err(); err != nil {
		// The deadline covers queue wait: a job that expired before a
		// worker picked it up fails without touching the solver. A
		// drain-forced cancellation reports canceled, not failed.
		j.finished = time.Now()
		j.mu.Unlock()
		s.finish(j, ending{state: endState(err), err: err, queueWait: j.finished.Sub(j.submitted)})
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	s.gaugeState(StateQueued, -1)
	s.gaugeState(StateRunning, 1)
	s.reg.Histogram(`agingfp_serve_queue_wait_seconds`).Observe(queueWait)
	s.reg.Gauge(`agingfp_serve_workers_busy`).Add(1)
	defer s.reg.Gauge(`agingfp_serve_workers_busy`).Add(-1)
	s.logJob(j, "job started", slog.Duration("queue_wait", queueWait))

	// The job's one span: the solver's runs nest under it (see options),
	// and its IDs join the span stream to the API and the request log.
	j.span = s.cfg.Trace.Start("serve.job", obs.String("job_id", j.id),
		obs.String("trace_id", j.traceID), obs.String("solve_kind", j.solveKind))
	eo, info, err := s.execute(j.ctx, j)

	j.mu.Lock()
	j.finished = time.Now()
	j.mu.Unlock()
	end := ending{state: endState(err), err: err, info: info, queueWait: queueWait, elapsed: j.finished.Sub(j.started)}
	j.span.End(obs.String("state", string(end.state)))
	j.span = obs.Span{} // the job record outlives the run
	// Buffered trace sinks hold the span until flushed: flush now, so a
	// finished job's spans are on disk before its state reads terminal.
	s.flushTrace()
	s.reg.Histogram(`agingfp_serve_job_seconds`).Observe(end.elapsed)
	if err == nil {
		end.result = eo.result
		// Delta jobs bypass the caches (key == ""): their results
		// depend on the base job's artifacts, not the request alone.
		if j.key != "" {
			e := &exactEntry{result: eo.result, semKey: j.semKey, ops: info.ops, contexts: info.contexts}
			// Only cold design solves feed the semantic tier: its
			// contract is "the canonical instance's own solve outcome",
			// which a seeded delta re-solve does not satisfy.
			var sem *semanticEntry
			if j.canonForm != nil {
				e.opPerm, e.ctxPerm = j.canonForm.OpPerm, j.canonForm.CtxPerm
				sem = &semanticEntry{result: eo.cres, artifacts: eo.artifacts}
			}
			// The job serves the stored slice, the one future hits serve.
			stored, _ := s.cache.put(j.key, e, sem)
			end.result = stored.result
		}
		end.artifacts = eo.artifacts
		end.fallback = eo.fallback
		if eo.reuse != nil {
			end.reuse = &ReuseInfo{
				FrozenReused: eo.reuse.FrozenReused,
				BasesSeeded:  eo.reuse.BasesSeeded,
				BracketHit:   eo.reuse.BracketHit,
			}
		}
	}
	j.canonForm = nil // the canonical document was only needed to solve
	s.finish(j, end)
}

// ending is how one job ended, whichever of the four ways: answered by
// a cache tier, canceled while queued, expired in the queue, or run by
// a worker. finish publishes it.
type ending struct {
	state     JobState
	err       error
	queueWait time.Duration
	elapsed   time.Duration // solver wall-clock; zero unless a worker ran the job
	info      *solveInfo    // worker runs: workload shape and solver statistics
	hit       *exactEntry   // cache hits: the entry that answered
	// Done jobs: the bytes the job serves, what a delta against it seeds
	// from, and for delta jobs how much of their base they reused.
	result    []byte
	artifacts *solveArtifacts
	fallback  string
	reuse     *ReuseInfo
}

// endState is the terminal state an execution error leaves a job in: a
// cancellation (client or drain) is canceled, any other error failed.
func endState(err error) JobState {
	switch {
	case err == nil:
		return StateDone
	case errors.Is(err, context.Canceled):
		return StateCanceled
	default:
		return StateFailed
	}
}

// finish ends a job whose ending the caller claimed, so it runs once per
// job. It writes every view a poller may read first: the log record,
// the wide event (and, for a slow outlier, its captured flight journal),
// the tenant accounting, and the job counters and gauges. Then it
// publishes the terminal state with its cost under j.mu, and last the
// terminal progress update, which SSE readers key off. A poller that
// reads the terminal state therefore finds every other view written.
func (s *Server) finish(j *job, end ending) {
	ev := s.jobEvent(j, &end)
	cost := costFromEvent(ev)

	attrs := []slog.Attr{
		slog.String("state", string(end.state)),
		slog.String("solve_kind", j.solveKind),
		slog.Duration("elapsed", end.elapsed),
	}
	if end.err != nil {
		attrs = append(attrs, slog.String("error", end.err.Error()))
	}
	s.logJob(j, "job finished", attrs...)
	tp := s.cfg.Telemetry
	if out := tp.Record(ev); out.Slow {
		// The outlier's flight journal goes next to the event store, so
		// the decision log is on disk before anyone asks. Only a job a
		// worker solved can be slow, and every such job has a recorder.
		path := tp.CaptureSlow(j.id, j.flight.Snapshot().WriteJSON)
		s.logJob(j, "slow solve captured",
			slog.Float64("elapsed_ms", ev.ElapsedMs),
			slog.Float64("threshold_ms", out.SlowThreshold),
			slog.String("journal", path))
	}
	s.accountTenant(ev.Tenant, end.state, end.elapsed)
	s.reg.Counter(`agingfp_serve_jobs_total{state="` + string(end.state) + `"}`).Inc()
	s.gaugeState(j.state, -1) // from the claim on, only this caller writes j.state
	s.gaugeState(end.state, 1)

	j.mu.Lock()
	j.state = end.state
	j.cost = cost
	if end.err != nil {
		j.errText = end.err.Error()
	}
	j.result = end.result
	j.artifacts = end.artifacts
	j.deltaFallback = end.fallback
	j.reuse = end.reuse
	j.mu.Unlock()
	j.cancel() // release the deadline timer
	j.rep.Update(func(p *obs.Progress) { p.Phase = "done"; p.Done = true; p.Status = string(end.state) })
}

// jobEvent builds the job's wide event for any ending; finish derives
// the job's cost block from it, so the two cannot disagree. A cache hit
// counts toward throughput and the hit rate but not toward solve
// latency (the pipeline keys that off cache_hit); its shape comes from
// the exact entry, which stores it beside the result bytes.
func (s *Server) jobEvent(j *job, end *ending) *telemetry.SolveEvent {
	ev := &telemetry.SolveEvent{
		Time:        time.Now(),
		Source:      telemetry.SourceServe,
		JobID:       j.id,
		TraceID:     j.traceID,
		Tenant:      s.tenantLabel(j),
		Bench:       j.req.Bench,
		Mode:        j.req.mode(),
		Status:      string(end.state),
		CacheHit:    end.hit != nil,
		SolveKind:   j.solveKind,
		ElapsedMs:   durMs(end.elapsed),
		QueueWaitMs: durMs(end.queueWait),
	}
	if j.req.Design != nil {
		ev.Bench = j.req.Design.Name
	}
	if end.err != nil {
		ev.Error = end.err.Error()
	}
	switch {
	case end.hit != nil:
		ev.Ops, ev.Contexts = end.hit.ops, end.hit.contexts
	case end.info != nil:
		ev.Ops, ev.Contexts = end.info.ops, end.info.contexts
		ev.FillStats(end.info.stats)
	}
	ev.FillKernel(j.flight.KernelSnapshot())
	return ev
}

// durMs converts a duration to float milliseconds for the wide event.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
