// Command agingfloord hosts the aging-aware floorplanner as a
// long-running HTTP/JSON job service. Clients submit a design (or a
// Table-I benchmark name), poll the job, and fetch the result document;
// identical submissions are answered from a content-addressed cache
// byte-identically.
//
//	agingfloord -addr :8080 -workers 2
//	curl -d '{"bench":"B1"}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/job-000001
//	curl localhost:8080/v1/jobs/job-000001/result
//	curl localhost:8080/v1/jobs/job-000001/progress
//	curl -N localhost:8080/v1/jobs/job-000001/events
//
// Every request and job-lifecycle event is logged to stderr with the
// job's trace_id (-log-format selects text or JSON records). -trace
// writes the span stream as JSONL: each job a worker runs is one
// serve.job span with the same job_id and trace_id attrs, and the
// solver's spans sit under it. -pprof mounts the runtime profiles under
// /debug/pprof/. The daemon starts no CPU profile of its own, so
// GET /debug/pprof/profile always has the runtime's one CPU profiler to
// itself.
//
// Each job a worker runs records a flight journal of up to
// flight.DefaultMaxEvents events, served at GET /v1/jobs/{id}/report. A
// request's own deadline_ms bounds its job; without one a job has no
// deadline.
//
// -telemetry-dir enables the longitudinal telemetry pipeline: one
// durable wide event per job, windowed percentiles behind GET
// /v1/stats, the operator dashboard at GET /debug/dash, automatic
// flight-journal capture under <dir>/slow/ of solves slower than the
// P99 of their shape bucket, and the SLO engine behind GET /v1/slo: 99%
// availability plus one latency objective per shape bucket, each
// bucket's reference worst solve time (slo.ReferenceWorstMs) × 4.
// Tenant labels in metrics and telemetry are bounded at
// telemetry.DefaultTenantCap distinct identities; later ones roll into
// "other".
//
// SIGTERM (or Ctrl-C) drains gracefully: intake stops with 503, queued
// and running jobs finish (bounded by -drain-timeout), buffered trace
// sinks are flushed, then the process exits. A second signal
// force-cancels in-flight solves cooperatively.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"agingfp/internal/buildinfo"
	"agingfp/internal/obs"
	"agingfp/internal/serve"
	"agingfp/internal/slo"
	"agingfp/internal/telemetry"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 2, "solver worker pool size")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs before force-canceling")
		tracePath    = flag.String("trace", "", "write the span stream as JSON Lines to this file")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logFormat    = flag.String("log-format", "text", "request/lifecycle log format: text or json")
		telemDir     = flag.String("telemetry-dir", "", "durable solve-telemetry directory; enables GET /v1/stats, GET /v1/slo and GET /debug/dash (empty disables)")
		kernelProf   = flag.Bool("kernel-profile", false, "arm the LP kernel profiler on every job: phase-attributed solver time in journals, reports, metrics, /v1/stats, and /debug/dash")
		version      = flag.Bool("version", false, "print build identity (VCS revision, Go version) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return 0
	}

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "agingfloord: unknown -log-format %q (want text or json)\n", *logFormat)
		return 2
	}

	reg := obs.NewRegistry()
	var sinks []obs.Sink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agingfloord: %v\n", err)
			return 1
		}
		js := obs.NewJSONLSink(f)
		// Drain flushes the sink; closing here catches the error-return
		// paths below too.
		defer func() {
			js.Close() //nolint:errcheck
			f.Close()  //nolint:errcheck
		}()
		sinks = append(sinks, js)
	}
	var tracer *obs.Tracer
	if len(sinks) > 0 {
		tracer = obs.New(sinks...)
	}

	// Telemetry is strictly additive: with no -telemetry-dir the pipeline
	// and the SLO engine stay nil and the server pays nothing per job (the
	// stats, slo and dash routes answer 404).
	var (
		pipeline  *telemetry.Pipeline
		sloEngine *slo.Engine
	)
	if *telemDir != "" {
		// The SLO engine must exist before Open: it subscribes through the
		// observer hook, and Open replays the durable event history through
		// the same hook — that replay is what lets error budgets survive a
		// restart.
		sloEngine = slo.New(
			slo.DefaultObjectives(0.99, slo.ReferenceWorstMs, 4.0),
			slo.Config{Registry: reg, Logger: logger},
		)
		p, err := telemetry.Open(telemetry.Config{
			Dir:       *telemDir,
			Observers: []func(*telemetry.SolveEvent){sloEngine.Record},
			Registry:  reg,
			Logger:    logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "agingfloord: %v\n", err)
			return 1
		}
		pipeline = p
		defer pipeline.Close() //nolint:errcheck // drain already flushed jobs
	}

	srv := serve.New(serve.Config{
		Workers:       *workers,
		DrainTimeout:  *drainTimeout,
		Trace:         tracer,
		Registry:      reg,
		Logger:        logger,
		EnablePprof:   *pprofOn,
		Telemetry:     pipeline,
		KernelProfile: *kernelProf,
		SLO:           sloEngine,
	})

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("agingfloord listening on %s (%d workers)\n", *addr, *workers)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "agingfloord: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Println("agingfloord: draining (queued and running jobs will finish)")

	// Stop intake and finish the backlog (Drain also flushes buffered
	// trace sinks), then close the listener. The HTTP shutdown gets a
	// grace period past the job drain so result polls in flight complete.
	srv.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "agingfloord: shutdown: %v\n", err)
		return 1
	}
	fmt.Println("agingfloord: drained cleanly")
	return 0
}
