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
// -telemetry-dir enables the longitudinal telemetry pipeline: one
// durable wide event per job, windowed percentiles behind GET
// /v1/stats, the operator dashboard at GET /debug/dash, automatic
// flight-journal capture of slow-outlier solves (-slow-percentile) under
// <dir>/slow/, and the SLO engine behind GET /v1/slo: availability plus
// one latency objective per shape bucket, each bucket's reference worst
// solve time (slo.ReferenceWorstMs) scaled by -slo-latency-factor.
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
		deadline     = flag.Duration("default-deadline", 0, "default per-job deadline, queue wait included (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs before force-canceling")
		tracePath    = flag.String("trace", "", "write the span stream as JSON Lines to this file")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logFormat    = flag.String("log-format", "text", "request/lifecycle log format: text or json")
		flightEvs    = flag.Int("flight-events", 0, "bound each job's flight journal (0 = default, negative disables GET /v1/jobs/{id}/report)")
		telemDir     = flag.String("telemetry-dir", "", "durable solve-telemetry directory; enables GET /v1/stats and GET /debug/dash (empty disables)")
		slowPct      = flag.Float64("slow-percentile", 0.99, "auto-capture the flight journal of solves beyond this latency percentile of their shape bucket (<=0 disables)")
		kernelProf   = flag.Bool("kernel-profile", false, "arm the LP kernel profiler on every job: phase-attributed solver time in journals, reports, metrics, /v1/stats, and /debug/dash")
		tenantCap    = flag.Int("tenant-cap", 0, "distinct tenant labels in metrics/telemetry before rollup into \"other\" (0 = default 32)")
		sloOn        = flag.Bool("slo", true, "run the SLO engine behind GET /v1/slo (requires -telemetry-dir)")
		sloAvail     = flag.Float64("slo-availability", 0.99, "availability objective: target fraction of non-canceled jobs that do not fail")
		sloLatFactor = flag.Float64("slo-latency-factor", 4.0, "latency objectives: P90 under (reference worst solve time x this factor) per shape bucket (<=0 disables)")
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
	// stays nil and the server pays nothing per job (the stats/dash
	// routes answer 404).
	var (
		pipeline  *telemetry.Pipeline
		sloEngine *slo.Engine
	)
	if *telemDir != "" {
		tcfg := telemetry.Config{
			Dir:            *telemDir,
			SlowPercentile: *slowPct,
			TenantCap:      *tenantCap,
			Registry:       reg,
			Logger:         logger,
		}
		if *slowPct <= 0 {
			tcfg.SlowPercentile = -1 // zero means "default"; force off
		}
		// The SLO engine must exist before Open: it subscribes through the
		// observer hook, and Open replays the durable event history through
		// the same hook — that replay is what lets error budgets survive a
		// restart.
		if *sloOn {
			sloEngine = slo.New(
				slo.DefaultObjectives(*sloAvail, slo.ReferenceWorstMs, *sloLatFactor),
				slo.Config{Registry: reg, Logger: logger},
			)
			tcfg.Observers = append(tcfg.Observers, sloEngine.Record)
		}
		p, err := telemetry.Open(tcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agingfloord: %v\n", err)
			return 1
		}
		pipeline = p
		defer pipeline.Close() //nolint:errcheck // drain already flushed jobs
	}

	srv := serve.New(serve.Config{
		Workers:         *workers,
		DefaultDeadline: *deadline,
		DrainTimeout:    *drainTimeout,
		Trace:           tracer,
		Registry:        reg,
		Logger:          logger,
		EnablePprof:     *pprofOn,
		FlightEvents:    *flightEvs,
		Telemetry:       pipeline,
		KernelProfile:   *kernelProf,
		SLO:             sloEngine,
		TenantCap:       *tenantCap,
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
