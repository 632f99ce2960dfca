package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"agingfp/internal/serve"
	"agingfp/internal/serve/client"
	"agingfp/internal/slo"
	"agingfp/internal/telemetry"
)

// service is one in-process agingfloord: the server with the daemon's
// default settings (2 workers, queue 16, cache 64, flight recording,
// telemetry on a directory, the SLO engine, request logging), behind a
// loopback HTTP listener, and the typed client the load comes through.
type service struct {
	dir      string
	pipeline *telemetry.Pipeline
	srv      *serve.Server
	hs       *httptest.Server
	tr       *http.Transport
	client   *client.Client
}

const serveWorkers = 2

// startService starts a server whose telemetry lives in a new directory
// under root. kernel arms the LP kernel profiler on every job.
func startService(root string, kernel bool) (*service, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "serve-")
	if err != nil {
		return nil, err
	}
	// agingfloord logs every request and job; the records are formatted
	// as it would format them and then dropped.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	engine := slo.New(slo.DefaultObjectives(0.99, nil, 4.0), slo.Config{Logger: logger})
	p, err := telemetry.Open(telemetry.Config{
		Dir:       dir,
		Logger:    logger,
		Observers: []func(*telemetry.SolveEvent){engine.Record},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(serve.Config{
		Workers:       serveWorkers,
		QueueDepth:    16,
		CacheEntries:  64,
		Logger:        logger,
		Telemetry:     p,
		KernelProfile: kernel,
		SLO:           engine,
	})
	hs := httptest.NewServer(srv.Handler())
	// At most two connections carry the load: the dispatcher's and the
	// poller's.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	c := client.New(hs.URL, &http.Client{Transport: tr})
	c.PollInterval = pollEvery
	return &service{dir: dir, pipeline: p, srv: srv, hs: hs, tr: tr, client: c}, nil
}

// stop drains the server and closes the listener and the pipeline; the
// telemetry directory stays until remove.
func (s *service) stop() error {
	s.srv.Drain()
	s.hs.Close()
	s.tr.CloseIdleConnections()
	return s.pipeline.Close()
}

func (s *service) remove() { os.RemoveAll(s.dir) }

type reqKind int

const (
	kindCold reqKind = iota
	kindDelta
	kindExact
	kindSemantic
)

var kindNames = [...]string{"cold", "delta", "exact", "semantic"}

func (k reqKind) String() string { return kindNames[k] }

// request is one planned submission and, once run, its outcome.
type request struct {
	due  time.Duration // offset from the start of the load
	kind reqKind
	inst *instance // the document submitted
	base *request  // the cold job a resubmit or delta refers to; nil for cold
	perm []int     // semantic resubmits: base op i is op perm[i] here

	// Outcome, written by whichever load goroutine issues or completes
	// the request; read after the engine has stopped.
	effDue    time.Time // when due, or when its base completed if later
	deferred  bool      // its base was still running when it fell due
	jobID     string
	issued    time.Time
	observed  time.Time // poller saw the terminal state
	doneAt    time.Time // the client held the result document
	scaled    float64   // closed loop: latency in ms at the reference speed
	submitRTT time.Duration
	resultRTT time.Duration
	snap      serve.Snapshot
	raw       []byte
	res       *serve.JobResult
	err       error
	bad       []string

	span    int // root span of the request's trace
	spanEnd func()
	waitEnd func()

	done    bool       // guarded by engine.mu
	waiters []*request // guarded by engine.mu
}

// latency is the time from when the request was due until the client
// held its result.
func (r *request) latency() time.Duration { return r.doneAt.Sub(r.effDue) }

func (r *request) solver() bool { return r.kind == kindCold || r.kind == kindDelta }

// kernel is the calibration kernel that scales r's latency: a resubmit
// is answered from the cache in two HTTP round trips, the others by the
// solver.
func (r *request) kernel() calKernel {
	if r.solver() {
		return computeKernel
	}
	return roundTripKernel
}

// pollEvery paces the poller's sweeps over unfinished jobs.
const pollEvery = 2 * time.Millisecond

// drainWait bounds how long the engine waits for the last jobs.
const drainWait = 120 * time.Second

// engine drives one plan against a service. In the open loop (runPlan)
// a dispatcher submits each request when it falls due (and fetches
// results the server answered at once), and a poller finds completions
// of queued jobs; those two goroutines are all the load there is. In
// the closed loop (runClosed) one caller sends each request once the
// previous one is answered.
type engine struct {
	svc *service
	tr  *tracer

	mu        sync.Mutex
	pending   []*request
	inflight  int
	remaining int
	backlog   []float64 // in-flight count at each due time
	allDone   chan struct{}
	wake      chan struct{}
}

func terminal(st serve.JobState) bool {
	return st == serve.StateDone || st == serve.StateFailed || st == serve.StateCanceled
}

// runPlan executes the plan (sorted by due time) and returns once every
// request finished or drainWait passed after the last one fell due.
func runPlan(ctx context.Context, svc *service, tr *tracer, reqs []*request) *engine {
	e := newEngine(svc, tr, len(reqs))
	if len(reqs) == 0 {
		return e
	}
	pollCtx, stopPoll := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.poll(pollCtx)
	}()
	start := time.Now()
	for _, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.effDue = due
		e.mu.Lock()
		e.inflight++
		e.backlog = append(e.backlog, float64(e.inflight))
		wait := r.base != nil && !r.base.done
		if wait {
			r.deferred = true
			r.base.waiters = append(r.base.waiters, r)
		}
		e.mu.Unlock()
		if !wait {
			e.issue(ctx, r)
		}
	}
	select {
	case <-e.allDone:
	case <-time.After(drainWait):
	case <-ctx.Done():
	}
	stopPoll()
	wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range reqs {
		if !r.done && r.err == nil {
			r.err = errors.New("not finished when the load stopped")
		}
	}
	return e
}

func newEngine(svc *service, tr *tracer, n int) *engine {
	return &engine{svc: svc, tr: tr, remaining: n,
		allDone: make(chan struct{}), wake: make(chan struct{}, 1)}
}

// runClosed sends the plan's requests one at a time, each as soon as
// the previous one is answered, as a caller of the typed client does:
// submit, wait for the job (polling every pollEvery), fetch the result.
// clock is sampled between requests, so no program work runs during a
// sample, and gives each request its scaled latency. Dependents must
// follow their base in reqs.
func runClosed(ctx context.Context, svc *service, tr *tracer, clock *speedClock, reqs []*request) *engine {
	e := newEngine(svc, tr, len(reqs))
	for _, r := range reqs {
		clock.tick()
		r.effDue = time.Now()
		e.mu.Lock()
		e.inflight++
		e.mu.Unlock()
		if !e.submit(ctx, r) {
			snap, err := svc.client.Wait(ctx, r.jobID)
			r.observed = time.Now()
			r.waitEnd()
			if err != nil {
				e.complete(ctx, r, fmt.Errorf("status: %w", err))
				continue
			}
			r.snap = snap
			e.fetch(ctx, r)
		}
	}
	clock.sample()
	for _, r := range reqs {
		if r.err == nil {
			r.scaled = ms(r.latency()) * clock.scale(r.kernel(), r.effDue, r.doneAt)
		}
	}
	return e
}

// issue submits r and, when the server answered at once, fetches the
// result; otherwise it hands r to the poller.
func (e *engine) issue(ctx context.Context, r *request) {
	if e.submit(ctx, r) {
		return
	}
	e.mu.Lock()
	e.pending = append(e.pending, r)
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// submit sends r. It returns true when r is complete: the server
// answered at once (the result is fetched) or the submit failed.
// Otherwise the job is queued or running and r waits for it.
func (e *engine) submit(ctx context.Context, r *request) bool {
	r.issued = time.Now()
	r.spanEnd, r.span = e.tr.start("request."+r.kind.String(), 0)
	end, _ := e.tr.start("serve.submit", r.span)
	var (
		snap serve.Snapshot
		err  error
	)
	if r.kind == kindDelta {
		snap, err = e.svc.client.Delta(ctx, r.base.jobID, &serve.DeltaRequest{Design: r.inst.doc})
	} else {
		snap, err = e.svc.client.Submit(ctx, &serve.JobRequest{Design: r.inst.doc})
	}
	r.submitRTT = time.Since(r.issued)
	end()
	if err != nil {
		e.complete(ctx, r, fmt.Errorf("submit: %w", err))
		return true
	}
	r.jobID = snap.ID
	if terminal(snap.State) {
		r.snap = snap
		e.fetch(ctx, r)
		return true
	}
	r.waitEnd, _ = e.tr.start("serve.wait", r.span)
	return false
}

// poll sweeps the unfinished jobs every pollEvery until ctx ends.
func (e *engine) poll(ctx context.Context) {
	for {
		e.mu.Lock()
		batch := append([]*request(nil), e.pending...)
		e.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-ctx.Done():
				return
			case <-e.wake:
			}
			continue
		}
		for _, r := range batch {
			snap, err := e.svc.client.Job(ctx, r.jobID)
			if ctx.Err() != nil {
				return
			}
			if err == nil && !terminal(snap.State) {
				continue
			}
			r.observed = time.Now()
			e.unpend(r)
			r.waitEnd()
			if err != nil {
				e.complete(ctx, r, fmt.Errorf("status: %w", err))
				continue
			}
			r.snap = snap
			e.fetch(ctx, r)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(pollEvery):
		}
	}
}

func (e *engine) unpend(r *request) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range e.pending {
		if p == r {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return
		}
	}
}

// fetch downloads a terminal job's result and completes the request.
func (e *engine) fetch(ctx context.Context, r *request) {
	if r.snap.State != serve.StateDone {
		e.complete(ctx, r, fmt.Errorf("job %s %s: %s", r.jobID, r.snap.State, r.snap.Error))
		return
	}
	end, _ := e.tr.start("serve.result", r.span)
	t := time.Now()
	raw, res, err := e.svc.client.Result(ctx, r.jobID)
	r.resultRTT = time.Since(t)
	r.doneAt = time.Now()
	end()
	if err != nil {
		e.complete(ctx, r, fmt.Errorf("result: %w", err))
		return
	}
	r.raw, r.res = raw, res
	e.complete(ctx, r, nil)
}

// complete checks r's answer, marks it done, and issues the requests
// that were waiting for it.
func (e *engine) complete(ctx context.Context, r *request, err error) {
	r.err = err
	if err == nil {
		r.bad = checkAnswer(r)
	}
	if r.spanEnd != nil {
		r.spanEnd()
	}
	e.mu.Lock()
	r.done = true
	waiters := r.waiters
	r.waiters = nil
	e.inflight--
	e.remaining--
	if e.remaining == 0 {
		close(e.allDone)
	}
	e.mu.Unlock()
	for _, w := range waiters {
		if r.err != nil {
			e.complete(ctx, w, fmt.Errorf("base %s failed", r.kind))
			continue
		}
		w.effDue = r.doneAt
		e.issue(ctx, w)
	}
}

// checkAnswer verifies one finished request with the independent
// checker: every answer is a valid, budget- and CPD-respecting
// floorplan of the document submitted; an exact resubmit returns the
// cold job's bytes; a semantic resubmit returns the cold job's
// floorplan read through its renumbering.
func checkAnswer(r *request) []string {
	res := r.res
	if res.Ops != r.inst.d.NumOps() {
		return []string{fmt.Sprintf("result has %d ops, design %d", res.Ops, r.inst.d.NumOps())}
	}
	m := mappingFromCells(res.Mapping)
	bad := checkFloorplan(r.inst.d, r.inst.m0, floorplanClaim{
		Mapping: m, MaxStress: res.NewMaxStress, STTarget: res.STTarget,
		NewCPD: res.NewCPDNs, OrigCPD: res.OrigCPDNs, ExactStress: true,
	})
	switch r.kind {
	case kindExact:
		if !bytes.Equal(r.raw, r.base.raw) {
			bad = append(bad, "exact resubmit returned different bytes than the cold job")
		}
	case kindSemantic:
		bad = append(bad, checkRenumbered(mappingFromCells(r.base.res.Mapping), m, r.perm)...)
	}
	return bad
}
