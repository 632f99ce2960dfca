package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/buildinfo"
	"agingfp/internal/canon"
	"agingfp/internal/core"
	"agingfp/internal/flight"
	"agingfp/internal/nbti"
	"agingfp/internal/obs"
	"agingfp/internal/place"
	"agingfp/internal/slo"
	"agingfp/internal/telemetry"
	"agingfp/internal/thermal"
)

// JobRequest is one floorplanning submission. Exactly one of Bench and
// Design selects the workload; the remaining fields tune the solver.
type JobRequest struct {
	// Bench names a built-in Table-I benchmark (B1..B27).
	Bench string `json:"bench,omitempty"`
	// Design is an inline design document (the same schema agingfloor
	// -save writes). A mapping named "baseline" is used as the starting
	// floorplan when present; otherwise the server places one.
	Design *arch.Document `json:"design,omitempty"`
	// Mode selects the re-mapping arm: "rotate" (default) or "freeze".
	Mode string `json:"mode,omitempty"`
	// Seed fixes the solver's random stream (0 keeps the default, which
	// for Bench workloads is the spec's published seed).
	Seed int64 `json:"seed,omitempty"`
	// TimeLimitMs bounds each ST_target probe (0 keeps the default).
	TimeLimitMs int64 `json:"time_limit_ms,omitempty"`
	// DeadlineMs bounds the whole job wall-clock, queue wait included
	// (0 means no deadline). The deadline is delivery policy, not
	// workload identity, so it is excluded from the result-cache key.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Tenant is the accounting identity the job runs under ("" defaults
	// to "anon"; the X-Tenant request header overrides this field). Like
	// the deadline it is delivery metadata, not workload identity, so it
	// is excluded from the result-cache key — two tenants submitting the
	// same design share the cached result.
	Tenant string `json:"tenant,omitempty"`
}

// RequestError reports a submission the server refuses outright
// (malformed design, unknown benchmark, invalid options). The HTTP
// layer maps it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...interface{}) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// mode is the re-mapping arm the request selects, its default applied.
func (r *JobRequest) mode() string {
	if r.Mode == "" {
		return core.Rotate.String()
	}
	return r.Mode
}

// options expands the request knobs into validated solver options,
// every default resolved: seed 0 is a bench workload's published seed
// (DefaultOptions' for a design), time limit 0 the default limit.
func (r *JobRequest) options() (core.Options, error) {
	opts := core.DefaultOptions()
	switch r.mode() {
	case "rotate":
		opts.Mode = core.Rotate
	case "freeze":
		opts.Mode = core.Freeze
	default:
		return opts, badRequest("serve: unknown mode %q (want freeze or rotate)", r.Mode)
	}
	if r.Seed != 0 {
		opts.Seed = r.Seed
	} else if spec, ok := bench.SpecByName(r.Bench); ok {
		opts.Seed = spec.Seed
	}
	if r.TimeLimitMs != 0 {
		opts.TimeLimit = time.Duration(r.TimeLimitMs) * time.Millisecond
	}
	if r.DeadlineMs < 0 {
		return opts, badRequest("serve: negative deadline_ms %d", r.DeadlineMs)
	}
	// Fail fast with the solver's own diagnostics before any work is
	// queued (negative time limits land here).
	if err := opts.Validate(); err != nil {
		return opts, badRequest("%v", err)
	}
	return opts, nil
}

// options is the job's solver options with its observers attached: the
// server's tracer, the job's serve.job span as the parent of its runs,
// and the job's flight recorder and progress cell.
func (s *Server) options(j *job) (core.Options, error) {
	opts, err := j.req.options()
	opts.Trace, opts.TraceParent, opts.Flight, opts.Progress = s.cfg.Trace, j.span, j.flight, j.rep
	return opts, err
}

// exactKey validates the request's choice of workload and its options
// and returns them with the exact-tier cache key: the SHA-256 of the
// decoded workload and the resolved options, so a request that spells
// out a default shares the key of one that leaves it out. Hashing the
// decoded request rather than the client's raw body also makes field
// order and whitespace irrelevant. DeadlineMs and Tenant are omitted:
// they decide whether and for whom a run finishes, never what it
// computes. The design document is not validated here; Submit decodes
// it only when the exact tier misses.
func (r *JobRequest) exactKey() (string, core.Options, error) {
	if (r.Bench == "") == (r.Design == nil) {
		return "", core.Options{}, badRequest("serve: submit exactly one of bench, design")
	}
	if r.Bench != "" {
		if _, ok := bench.SpecByName(r.Bench); !ok {
			return "", core.Options{}, badRequest("serve: unknown benchmark %q (want B1..B27)", r.Bench)
		}
	}
	opts, err := r.options()
	if err != nil {
		return "", opts, err
	}
	var buf [4096]byte
	b := appendKeyString(buf[:0], r.Bench)
	if r.Design != nil {
		b = appendDocKey(b, r.Design)
	}
	b = appendKeyString(b, opts.Mode.String())
	b = binary.AppendVarint(b, opts.Seed)
	b = binary.AppendVarint(b, timeLimitMs(opts))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), opts, nil
}

// timeLimitMs is the resolved per-probe time limit in milliseconds.
func timeLimitMs(opts core.Options) int64 { return int64(opts.TimeLimit / time.Millisecond) }

// appendKeyString appends str with its length, so consecutive strings
// cannot run into each other.
func appendKeyString(b []byte, str string) []byte {
	b = binary.AppendUvarint(b, uint64(len(str)))
	return append(b, str...)
}

// appendDocKey appends every field of doc to a key: lengths before
// lists, mappings in name order. A nil and an empty list read the
// same, as they decode to the same design.
func appendDocKey(b []byte, doc *arch.Document) []byte {
	b = appendKeyString(b, doc.Name)
	b = binary.AppendVarint(b, int64(doc.FabricW))
	b = binary.AppendVarint(b, int64(doc.FabricH))
	b = binary.AppendVarint(b, int64(doc.NumContexts))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(doc.ClockPeriodNs))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(doc.UnitWireDelayNs))
	b = binary.AppendUvarint(b, uint64(len(doc.Ops)))
	for _, op := range doc.Ops {
		b = binary.AppendVarint(b, int64(op.Kind))
		b = appendKeyString(b, op.Name)
		b = binary.AppendVarint(b, int64(op.Ctx))
	}
	b = appendKeyPairs(b, doc.Edges)
	names := make([]string, 0, len(doc.Mappings))
	for name := range doc.Mappings {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendKeyString(b, name)
		b = appendKeyPairs(b, doc.Mappings[name])
	}
	return b
}

func appendKeyPairs(b []byte, ps [][2]int) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = binary.AppendVarint(b, int64(p[0]))
		b = binary.AppendVarint(b, int64(p[1]))
	}
	return b
}

// MTTFSummary is the reliability section of a result document.
type MTTFSummary struct {
	BeforeHours float64 `json:"before_hours"`
	AfterHours  float64 `json:"after_hours"`
	Increase    float64 `json:"increase"`
}

// SolveStats is the solver-effort section of a result document.
type SolveStats struct {
	LPSolves      int `json:"lp_solves"`
	SimplexIters  int `json:"simplex_iters"`
	STProbes      int `json:"st_probes"`
	ProbeTimeouts int `json:"probe_timeouts"`
}

// JobResult is the document a finished job serves. Every field is a
// deterministic function of the request (no wall-clock values), so the
// cached bytes equal what a fresh run would produce.
type JobResult struct {
	Design string `json:"design"`
	// Ops / Contexts are the workload shape (telemetry buckets jobs by
	// them; clients get them for free).
	Ops      int `json:"ops"`
	Contexts int `json:"contexts"`
	// Status is the solver's typed outcome (optimal, feasible,
	// node-limit, canceled, infeasible).
	Status   string  `json:"status"`
	Improved bool    `json:"improved"`
	STTarget float64 `json:"st_target"`
	STLower  float64 `json:"st_lower_bound"`

	OrigMaxStress float64 `json:"orig_max_stress"`
	NewMaxStress  float64 `json:"new_max_stress"`
	OrigCPDNs     float64 `json:"orig_cpd_ns"`
	NewCPDNs      float64 `json:"new_cpd_ns"`

	MTTF MTTFSummary `json:"mttf"`

	Stats SolveStats `json:"stats"`

	// Mapping is the aging-aware floorplan, one [x, y] per op.
	Mapping [][2]int `json:"mapping"`
}

// canonResult is the rendering-agnostic core of a result document: the
// solve outcome of the (canonical) instance, with the mapping in the
// solved instance's op numbering and no client-chosen names. A cold
// solve produces one and renders it through the request's op
// permutation; a semantic cache hit re-renders the stored one through
// the new request's permutation — the two paths produce byte-identical
// documents by construction.
type canonResult struct {
	ops      int
	contexts int
	status   string
	improved bool
	stTarget float64
	stLower  float64

	origMaxStress float64
	newMaxStress  float64
	origCPD       float64
	newCPD        float64

	mttf  MTTFSummary
	stats SolveStats

	mapping []arch.Coord // solved-instance op order
}

// renderResult materializes the client-facing document: the design
// name comes from the request, the mapping is translated back to the
// client's op numbering (opPerm maps client index -> solved index; nil
// means identity).
func renderResult(designName string, opPerm []int, cr *canonResult) ([]byte, error) {
	out := &JobResult{
		Design:        designName,
		Ops:           cr.ops,
		Contexts:      cr.contexts,
		Status:        cr.status,
		Improved:      cr.improved,
		STTarget:      cr.stTarget,
		STLower:       cr.stLower,
		OrigMaxStress: cr.origMaxStress,
		NewMaxStress:  cr.newMaxStress,
		OrigCPDNs:     cr.origCPD,
		NewCPDNs:      cr.newCPD,
		MTTF:          cr.mttf,
		Stats:         cr.stats,
	}
	out.Mapping = make([][2]int, len(cr.mapping))
	for i := range cr.mapping {
		c := cr.mapping[i]
		if opPerm != nil {
			c = cr.mapping[opPerm[i]]
		}
		out.Mapping[i] = [2]int{c.X, c.Y}
	}
	return json.MarshalIndent(out, "", "  ")
}

// solveArtifacts is the per-job artifact set the delta API seeds a
// re-solve from. clientDoc is the job's workload in the numbering the
// client submitted it in (a delta request diffs against it); the
// remaining fields are in the solved instance's numbering, reached
// from client numbering via opPerm/ctxPerm (nil = identity).
type solveArtifacts struct {
	clientDoc *arch.Document
	opPerm    []int
	ctxPerm   []int
	baseline  arch.Mapping // the m0 actually solved against
	solved    arch.Mapping // the floorplan the solve produced
	frozen    map[int]arch.Coord
	stTarget  float64
	bases     [][]byte // serialized lp.Basis per context batch
	mode      string   // resolved solver options (delta inherits these)
	seed      int64
	timeLimit int64
}

// solveInfo is what execute reports back for the job's telemetry wide
// event: workload shape plus the solver-effort statistics. Partially
// filled on failure paths (shape is known once the design builds, stats
// once the solver returns).
type solveInfo struct {
	ops      int
	contexts int
	status   string
	stats    core.Stats
}

// execOut is everything a finished execute hands back to runJob: the
// rendered result bytes, the rendering-agnostic canonical result (for
// the semantic cache tier), the artifact set future delta jobs seed
// from, and — for delta jobs — the fallback reason and reuse report.
type execOut struct {
	result    []byte
	cres      *canonResult
	artifacts *solveArtifacts
	fallback  string // delta cold-fallback reason; "" = seeded (or not a delta)
	reuse     *core.ResumeInfo
}

// solveInstance runs the solver on one prepared instance and folds the
// outcome (solve + reliability evaluation) into a canonResult. A nil
// prior solves cold; a non-nil one seeds the re-solve from it. info is
// updated in place as facts become available.
func (s *Server) solveInstance(ctx context.Context, d *arch.Design, m0 arch.Mapping, opts core.Options, prior *core.Prior, info *solveInfo) (*canonResult, *core.Result, error) {
	var (
		res *core.Result
		err error
	)
	if prior != nil {
		res, err = core.RemapFromPrior(ctx, d, m0, opts, prior)
	} else {
		res, err = core.Remap(ctx, d, m0, opts)
	}
	if res != nil {
		info.stats = res.Stats
		info.status = res.Status.String()
	}
	if err != nil {
		return nil, res, err
	}

	model, tcfg := nbti.DefaultModel(), thermal.DefaultConfig()
	before, err := core.Evaluate(d, m0, model, tcfg)
	if err != nil {
		return nil, res, err
	}
	ratio, err := core.MTTFIncrease(d, m0, res.Mapping, model, tcfg)
	if err != nil {
		return nil, res, err
	}

	cr := &canonResult{
		ops:           d.NumOps(),
		contexts:      d.NumContexts,
		status:        res.Status.String(),
		improved:      res.Improved,
		stTarget:      res.STTarget,
		stLower:       res.STLowerBound,
		origMaxStress: res.OrigMaxStress,
		newMaxStress:  res.NewMaxStress,
		origCPD:       res.OrigCPD,
		newCPD:        res.NewCPD,
		mapping:       res.Mapping,
	}
	cr.mttf = MTTFSummary{BeforeHours: before.Hours, AfterHours: before.Hours * ratio, Increase: ratio}
	cr.stats = SolveStats{
		LPSolves:      res.Stats.LPSolves,
		SimplexIters:  res.Stats.SimplexIters,
		STProbes:      res.Stats.STProbes,
		ProbeTimeouts: res.Stats.ProbeTimeouts,
	}
	return cr, res, nil
}

// packArtifacts serializes a finished solve into the artifact set a
// future delta job seeds from. clientDoc/opPerm/ctxPerm tie the solved
// numbering back to the numbering the client submitted in.
func packArtifacts(clientDoc *arch.Document, opPerm, ctxPerm []int, m0 arch.Mapping, res *core.Result, opts core.Options) *solveArtifacts {
	art := &solveArtifacts{
		clientDoc: clientDoc,
		opPerm:    opPerm,
		ctxPerm:   ctxPerm,
		baseline:  append(arch.Mapping(nil), m0...),
		solved:    append(arch.Mapping(nil), res.Mapping...),
		frozen:    res.FrozenOps,
		stTarget:  res.STTarget,
		mode:      opts.Mode.String(),
		seed:      opts.Seed,
		timeLimit: int64(opts.TimeLimit / time.Millisecond),
	}
	art.bases = make([][]byte, len(res.Bases))
	for i, b := range res.Bases {
		if b == nil {
			continue
		}
		if enc, err := b.MarshalBinary(); err == nil {
			art.bases[i] = enc
		}
	}
	return art
}

// execute runs one job under its context and renders the result
// document. Cancellation surfaces as ctx's error (the partial solver
// result is discarded — a half-searched floorplan is not a deliverable).
// The returned solveInfo is non-nil whenever the design was built, even
// when the solve itself failed.
//
// Design submissions solve the CANONICAL instance (internal/canon) and
// render the result back through the request's own op permutation.
// That is what makes the semantic cache tier sound on bytes: a cold
// solve of any isomorphic submission and a semantic replay both render
// the same stored canonical outcome the same way.
func (s *Server) execute(ctx context.Context, j *job) (*execOut, *solveInfo, error) {
	req := j.req
	if j.delta != nil {
		return s.executeDelta(ctx, j)
	}

	if req.Bench != "" {
		spec, _ := bench.SpecByName(req.Bench)
		d, err := bench.Synthesize(spec)
		if err != nil {
			return nil, nil, err
		}
		info := &solveInfo{ops: d.NumOps(), contexts: d.NumContexts}
		m0, err := place.PlaceContext(ctx, d, place.DefaultConfig())
		if err != nil {
			return nil, info, err
		}
		opts, err := s.options(j)
		if err != nil {
			return nil, info, err
		}
		cr, res, err := s.solveInstance(ctx, d, m0, opts, nil, info)
		if err != nil {
			return nil, info, err
		}
		out, err := renderResult(d.Name, nil, cr)
		if err != nil {
			return nil, info, err
		}
		// Bench jobs are identity-numbered: their artifact document is
		// the synthesized design itself, so deltas against them align
		// without any permutation.
		clientDoc := arch.ToDocument(d, map[string]arch.Mapping{canon.BaselineMapping: m0})
		return &execOut{
			result:    out,
			cres:      cr,
			artifacts: packArtifacts(clientDoc, nil, nil, m0, res, opts),
		}, info, nil
	}

	// Design submission: solve the canonical instance Submit computed.
	form := j.canonForm
	d, mappings, err := arch.FromDocument(form.Doc)
	if err != nil {
		return nil, nil, err
	}
	info := &solveInfo{ops: d.NumOps(), contexts: d.NumContexts}
	m0 := mappings[canon.BaselineMapping]
	if m0 == nil {
		// place.Place is deterministic for a fixed seed, and the
		// canonical design is identical across isomorphic submissions,
		// so every one of them gets the same starting floorplan.
		m0, err = place.PlaceContext(ctx, d, place.DefaultConfig())
		if err != nil {
			return nil, info, err
		}
	}
	opts, err := s.options(j)
	if err != nil {
		return nil, info, err
	}
	cr, res, err := s.solveInstance(ctx, d, m0, opts, nil, info)
	if err != nil {
		return nil, info, err
	}
	out, err := renderResult(req.Design.Name, form.OpPerm, cr)
	if err != nil {
		return nil, info, err
	}
	return &execOut{
		result:    out,
		cres:      cr,
		artifacts: packArtifacts(req.Design, form.OpPerm, form.CtxPerm, m0, res, opts),
	}, info, nil
}

// Handler returns the service's HTTP routes:
//
//	POST   /v1/jobs               submit; 202 with the job snapshot
//	                              (a cache hit's carries its result)
//	POST   /v1/jobs/{id}/delta    incremental re-solve seeded from a
//	                              finished base job's artifacts
//	GET    /v1/jobs/{id}          job status snapshot, with the result
//	                              once done (?wait=30s blocks until the
//	                              job is terminal, at most MaxWait)
//	GET    /v1/jobs/{id}/result   finished job's result document
//	GET    /v1/jobs/{id}/progress latest solver-progress snapshot
//	GET    /v1/jobs/{id}/events   server-sent-events progress stream
//	GET    /v1/jobs/{id}/report   flight-recorder explainability report
//	                              (?format=json|text|journal, default json)
//	DELETE /v1/jobs/{id}          cooperative cancel
//	GET    /v1/version            build identity (VCS revision, Go version)
//	GET    /v1/stats              windowed telemetry summary
//	                              (?window=15m&tenant=NAME; Config.Telemetry)
//	GET    /v1/slo                SLO status: SLIs, error budgets, and
//	                              burn rates (?window=1h; Config.SLO)
//	GET    /v1/openapi.json       hand-maintained OpenAPI description
//	GET    /healthz               liveness + drain state
//	GET    /metrics               Prometheus text-format snapshot
//	GET    /debug/dash            self-contained HTML operator dashboard
//	                              (?window=15m; Config.Telemetry)
//	GET    /debug/pprof/...       runtime profiles (Config.EnablePprof)
//
// Every response carries X-Trace-Id when the route resolves a job, and
// Config.Logger (when set) records one line per request keyed by the
// same ID.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.logRequests(mux)
}

// route is one mux registration. The table is the single source of
// truth the handler wiring AND the OpenAPI document are generated
// from, so a route cannot ship unspecified (the spec test walks this
// table).
type route struct {
	Method  string
	Pattern string
	Summary string
	handler http.HandlerFunc
}

// routes lists every /v1 and operational endpoint. The pprof mounts
// stay out of the table: they are third-party handlers gated by
// EnablePprof, not part of the service's API surface.
func (s *Server) routes() []route {
	return []route{
		{"POST", "/v1/jobs", "submit a floorplanning job", s.handleSubmit},
		{"POST", "/v1/jobs/{id}/delta", "submit an incremental re-solve seeded from a finished base job", s.handleDelta},
		{"GET", "/v1/jobs/{id}", "job status snapshot; ?wait= blocks until the job is terminal", s.handleStatus},
		{"GET", "/v1/jobs/{id}/result", "finished job's result document", s.handleResult},
		{"GET", "/v1/jobs/{id}/progress", "latest solver-progress snapshot", s.handleProgress},
		{"GET", "/v1/jobs/{id}/events", "server-sent-events progress stream", s.handleEvents},
		{"GET", "/v1/jobs/{id}/report", "flight-recorder explainability report", s.handleReport},
		{"DELETE", "/v1/jobs/{id}", "cooperative cancel", s.handleCancel},
		{"GET", "/v1/version", "build identity", s.handleVersion},
		{"GET", "/v1/stats", "windowed telemetry summary", s.handleStats},
		{"GET", "/v1/slo", "service-level objective status", s.handleSLO},
		{"GET", "/v1/openapi.json", "this API description", s.handleOpenAPI},
		{"GET", "/healthz", "liveness and drain state", s.handleHealthz},
		{"GET", "/metrics", "Prometheus text-format snapshot", s.handleMetrics},
		{"GET", "/debug/dash", "HTML operator dashboard", s.handleDash},
	}
}

// statusWriter records the response code and byte count for the request
// log. It forwards Flush so the SSE stream keeps working behind the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
	n    int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests wraps the mux with structured request logging. The job's
// trace_id is read back from the X-Trace-Id header the handlers stamp,
// so request lines and lifecycle lines correlate without re-resolving
// the route here.
func (s *Server) logRequests(next http.Handler) http.Handler {
	if s.cfg.Logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", code),
			slog.Int64("bytes", sw.n),
			slog.Duration("elapsed", time.Since(start)),
		}
		if id := sw.Header().Get("X-Trace-Id"); id != "" {
			attrs = append(attrs, slog.String("trace_id", id))
		}
		if tenant := sw.Header().Get("X-Tenant"); tenant != "" {
			attrs = append(attrs, slog.String("tenant", tenant))
		}
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "http request", attrs...)
	})
}

// setTraceHeader stamps the job's correlation ID — and its accounting
// identity — on the response, so clients see which tenant the job was
// attributed to and the request log picks both up without re-resolving
// the route.
func setTraceHeader(w http.ResponseWriter, snap Snapshot) {
	if snap.TraceID != "" {
		w.Header().Set("X-Trace-Id", snap.TraceID)
	}
	if snap.Tenant != "" {
		w.Header().Set("X-Tenant", snap.Tenant)
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// writeSnapshot writes a snapshot with its own codec, compact and with
// a done job's result bytes spliced in unchanged, after stamping its
// trace headers.
func writeSnapshot(w http.ResponseWriter, code int, snap Snapshot) {
	b, err := snap.MarshalJSON()
	if err != nil {
		httpError(w, err)
		return
	}
	setTraceHeader(w, snap)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n')) //nolint:errcheck // the response is already committed
}

// rejectWithRetry maps intake back-pressure (queue full, draining) to
// the error envelope plus a Retry-After header, so well-behaved clients
// back off for about as long as the backlog needs to drain instead of
// hammering.
func (s *Server) rejectWithRetry(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	httpError(w, err)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		httpError(w, badRequest("serve: read body: %v", err))
		return
	}
	var req JobRequest
	if err := req.UnmarshalJSON(body); err != nil {
		httpError(w, badRequest("serve: bad request JSON: %v", err))
		return
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		req.Tenant = h
	}
	snap, err := s.Submit(&req)
	if err != nil {
		s.rejectWithRetry(w, err)
		return
	}
	writeSnapshot(w, http.StatusAccepted, snap)
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		httpError(w, badRequest("serve: read body: %v", err))
		return
	}
	var req DeltaRequest
	if err := req.UnmarshalJSON(body); err != nil {
		httpError(w, badRequest("serve: bad request JSON: %v", err))
		return
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		req.Tenant = h
	}
	snap, err := s.SubmitDelta(r.PathValue("id"), &req)
	if err != nil {
		s.rejectWithRetry(w, err)
		return
	}
	writeSnapshot(w, http.StatusAccepted, snap)
}

// MaxWait caps the blocking wait of GET /v1/jobs/{id}?wait=.
const MaxWait = 60 * time.Second

// handleStatus serves a job's snapshot. With ?wait=<Go duration> it
// first blocks until the job is terminal, the duration (capped at
// MaxWait) has passed, or the client goes away, whichever comes first.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if q := r.URL.Query().Get("wait"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d < 0 {
			httpError(w, badRequest("serve: bad wait %q (want a non-negative Go duration such as 30s)", q))
			return
		}
		wait = min(d, MaxWait)
	}
	snap, err := s.await(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		httpError(w, err)
		return
	}
	writeSnapshot(w, http.StatusOK, snap)
}

// await returns a job's snapshot once the job is terminal, wait has
// passed or ctx has ended, whichever comes first; a zero wait returns
// it at once. It watches the job's progress cell as the SSE stream
// does: finish publishes the terminal update after the terminal state,
// so the snapshot read after it is terminal.
func (s *Server) await(ctx context.Context, id string, wait time.Duration) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		for p, ch := j.rep.Watch(); !p.Done; p, ch = j.rep.Watch() {
			select {
			case <-ch:
			case <-timer.C:
				return j.snapshot(), nil
			case <-ctx.Done():
				return j.snapshot(), nil
			}
		}
	}
	return j.snapshot(), nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if snap, err := s.Job(r.PathValue("id")); err == nil {
		setTraceHeader(w, snap)
	}
	out, err := s.Result(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out) //nolint:errcheck
}

// ProgressSnapshot is the GET /v1/jobs/{id}/progress payload and the SSE
// event data: the job's identity and state plus the latest solver
// progress.
type ProgressSnapshot struct {
	ID       string       `json:"id"`
	TraceID  string       `json:"trace_id,omitempty"`
	State    JobState     `json:"state"`
	Progress obs.Progress `json:"progress"`
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	snap, prog, err := s.Progress(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	setTraceHeader(w, snap)
	writeJSON(w, http.StatusOK, ProgressSnapshot{
		ID: snap.ID, TraceID: snap.TraceID, State: snap.State, Progress: prog,
	})
}

// sseKeepAlive is the idle interval after which the /events stream
// emits a `: keep-alive` comment.
var sseKeepAlive = 15 * time.Second

// handleEvents streams progress updates as server-sent events: one
// `data:` line per published snapshot (deduplicated by Seq), ending
// after the terminal Done event or when the client goes away. Quiet
// stretches (a long simplex phase publishes nothing for a while) are
// bridged with `: keep-alive` comment frames every sseKeepAlive,
// so idle-timeout reverse proxies keep the stream open and a vanished
// client is noticed by the failed write instead of lingering forever.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, err := s.reporter(id)
	if err != nil {
		httpError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, fmt.Errorf("serve: response writer cannot stream"))
		return
	}
	if snap, err := s.Job(id); err == nil {
		setTraceHeader(w, snap)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	keepAlive := time.NewTicker(sseKeepAlive)
	defer keepAlive.Stop()

	var lastSeq uint64
	sent := false
	for {
		p, ch := rep.Watch()
		if !sent || p.Seq > lastSeq {
			snap, _ := s.Job(id)
			data, err := json.Marshal(ProgressSnapshot{
				ID: id, TraceID: snap.TraceID, State: snap.State, Progress: p,
			})
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			flusher.Flush()
			lastSeq, sent = p.Seq, true
			if p.Done {
				return
			}
		}
		select {
		case <-ch:
		case <-keepAlive.C:
			if _, err := io.WriteString(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleReport serves the job's flight-recorder output: the raw journal
// (?format=journal), the human-readable report (?format=text), or the
// deterministic report JSON (default). The journal snapshot is
// consistent mid-solve, so a report of a running job shows the search
// so far.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if snap, err := s.Job(r.PathValue("id")); err == nil {
		setTraceHeader(w, snap)
	}
	journal, err := s.FlightJournal(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "journal":
		w.Header().Set("Content-Type", "application/json")
		journal.WriteJSON(w) //nolint:errcheck // response already committed
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, flight.BuildReport(journal).Text()) //nolint:errcheck
	case "", "json":
		out, err := flight.BuildReport(journal).JSON()
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out) //nolint:errcheck
	default:
		httpError(w, badRequest("serve: unknown report format %q (want json, text, or journal)", format))
	}
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, buildinfo.Get())
}

// statsWindow resolves the ?window= query (default: the pipeline's
// Window, the horizon slow-solve capture also compares over).
func (s *Server) statsWindow(r *http.Request) (time.Duration, error) {
	window := s.cfg.Telemetry.Window()
	q := r.URL.Query().Get("window")
	if q == "" {
		return window, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, badRequest("serve: bad window %q: %v", q, err)
	}
	if d <= 0 {
		return 0, badRequest("serve: window %q must be positive", q)
	}
	return d, nil
}

// handleStats serves the windowed telemetry summary: percentiles per
// shape bucket, benchmark, and tenant, throughput, and cache hit rate.
// ?tenant=NAME narrows the response to one tenant's
// accounting view (look up "other" for identities past the cardinality
// cap — a rolled-up tenant's own name reports zero traffic, honestly).
// 404 when no telemetry pipeline is configured.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Telemetry == nil {
		httpError(w, ErrNoTelemetry)
		return
	}
	window, err := s.statsWindow(r)
	if err != nil {
		httpError(w, err)
		return
	}
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		writeJSON(w, http.StatusOK, s.cfg.Telemetry.TenantStats(tenant, window))
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Telemetry.Stats(window))
}

// handleSLO serves the SLO engine's objective status: per-objective
// SLI, error-budget remaining, and multi-window burn rates. ?window=
// narrows the SLI/budget horizon (default: the engine's full 6h ring).
// 404 when no engine is configured (it requires telemetry — the engine
// is fed through the pipeline's observer hook).
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SLO == nil {
		httpError(w, ErrNoSLO)
		return
	}
	var window time.Duration // 0 = the engine's full ring span
	if q := r.URL.Query().Get("window"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			httpError(w, badRequest("serve: bad window %q", q))
			return
		}
		window = d
	}
	writeJSON(w, http.StatusOK, s.cfg.SLO.Status(window))
}

// handleDash serves the self-contained HTML operator dashboard over the
// same windowed summary /v1/stats exposes as JSON.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Telemetry == nil {
		httpError(w, ErrNoTelemetry)
		return
	}
	window, err := s.statsWindow(r)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var extras []string
	if s.cfg.SLO != nil {
		extras = append(extras, slo.PanelHTML(s.cfg.SLO.Status(window)))
	}
	io.WriteString(w, telemetry.Dashboard(s.cfg.Telemetry, window, "agingfloord", extras...)) //nolint:errcheck
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		httpError(w, err)
		return
	}
	snap, err := s.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeSnapshot(w, http.StatusOK, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status     string `json:"status"`
		Draining   bool   `json:"draining"`
		QueueDepth int    `json:"queue_depth"`
	}{"ok", s.Draining(), s.QueueDepth()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		httpError(w, err)
	}
}
