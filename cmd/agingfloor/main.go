// Command agingfloor runs the complete aging-aware floorplanning flow on
// one workload — a built-in kernel or a Table-I benchmark — and prints a
// human-readable report: stress maps before and after, timing, stress
// target, and the MTTF increase.
//
//	agingfloor -kernel fir16 -fabric 6x6
//	agingfloor -bench B14
//	agingfloor -src design.c -fabric 6x6
//	agingfloor -kernel dct8 -fabric 5x5 -mode freeze
//
// With -journal the run's flight-recorder journal (every MILP decision:
// probes, relaxations, rotations, pre-maps, prunes) is written as JSON,
// and agingfloor explain renders it as the human-readable
// explainability report, offline and at any time:
//
//	agingfloor -bench B14 -journal b14.journal.json
//	agingfloor explain b14.journal.json > b14.report.txt
//	agingfloor explain -json b14.journal.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/buildinfo"
	"agingfp/internal/core"
	"agingfp/internal/dfg"
	"agingfp/internal/flight"
	"agingfp/internal/frontend"
	"agingfp/internal/hls"
	"agingfp/internal/nbti"
	"agingfp/internal/obs"
	"agingfp/internal/place"
	"agingfp/internal/telemetry"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// main delegates to run so deferred cleanup (trace flush, profile stop)
// survives the exit path — os.Exit skips defers.
func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "explain":
			os.Exit(runExplain(os.Args[2:]))
		case "submit":
			os.Exit(runSubmit(os.Args[2:]))
		case "delta":
			os.Exit(runDelta(os.Args[2:]))
		}
	}
	os.Exit(run())
}

// runExplain renders a previously saved flight journal (-journal) as a
// report, without re-running any solve.
func runExplain(args []string) int {
	fs := flag.NewFlagSet("agingfloor explain", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as deterministic JSON instead of text")
	svgF := fs.String("svg", "", "also write the per-PE stress-attribution heatmap SVG to this file")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: agingfloor explain [-json] [-svg file.svg] journal.json")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	journal, err := flight.ReadJournal(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep := flight.BuildReport(journal)
	if *jsonOut {
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		os.Stdout.Write(out) //nolint:errcheck
		fmt.Println()
	} else {
		fmt.Print(rep.Text())
	}
	if *svgF != "" {
		svg := rep.HeatmapSVG()
		if svg == "" {
			fmt.Fprintln(os.Stderr, "journal carries no stress attribution; no heatmap written")
			return 1
		}
		if err := os.WriteFile(*svgF, []byte(svg), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "wrote stress heatmap to", *svgF)
	}
	return 0
}

func run() int {
	var (
		kernel    = flag.String("kernel", "", "built-in kernel (fir16, fir32, iir4, iir8, matmul3, matmul4, dct8, conv3x3, fft16, reduce32)")
		benchN    = flag.String("bench", "", "Table-I benchmark name (B1..B27)")
		srcF      = flag.String("src", "", "behavioral source file (C-like assignments) to compile")
		fabric    = flag.String("fabric", "8x8", "fabric WxH (kernels only)")
		mode      = flag.String("mode", "rotate", "re-mapping mode: freeze or rotate")
		seed      = flag.Int64("seed", 1, "random seed")
		warmH     = flag.Bool("warm-heuristics", false, "reuse simplex bases inside the LP-rounding heuristics (faster; floorplans may differ from cold runs)")
		save      = flag.String("save", "", "write the design + both floorplans as JSON to this file")
		traceF    = flag.String("trace", "", "write a JSONL span trace (one event per span) to this file")
		metricsF  = flag.String("metrics", "", "write a Prometheus text-format metrics snapshot to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (phases carried as pprof labels)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		progress  = flag.Bool("progress", false, "render a live solver status line on stderr while the flow runs")
		journalF  = flag.String("journal", "", "write the solve's flight-recorder journal (JSON) to this file")
		flightEvs = flag.Int("flight-events", 0, "bound the flight journal's event count (0 = default, negative disables recording)")
		kernProfF = flag.String("kernel-profile", "", "arm the LP kernel profiler and write the aggregated kernel profile (phase times, basis health, pivots by constraint family) as JSON to this file")
		telemDir  = flag.String("telemetry-dir", "", "append this run's wide telemetry event to the durable store in this directory (shared with agingfloord)")
		version   = flag.Bool("version", false, "print build identity (VCS revision, Go version) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return 0
	}

	// Observability plumbing: the tracer fans out to the requested sinks
	// and carries the metrics registry the -metrics snapshot reads.
	var sinks []obs.Sink
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		js := obs.NewJSONLSink(f)
		defer func() {
			js.Close()
			f.Close()
			fmt.Println("wrote span trace to", *traceF)
		}()
		sinks = append(sinks, js)
	}
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if len(sinks) > 0 || *metricsF != "" {
		tracer = obs.New(sinks...).WithMetrics(reg)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Println("wrote CPU profile to", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
			fmt.Println("wrote heap profile to", *memProf)
		}()
	}

	d, err := buildDesign(*kernel, *benchN, *srcF, *fabric)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fmt.Printf("design %s: %d ops, %d contexts, fabric %v, utilization %.0f%%\n",
		d.Name, d.NumOps(), d.NumContexts, d.Fabric, 100*d.UtilizationRate())

	// Ctrl-C / SIGTERM cancel the flow cooperatively: the solver layers
	// poll the context and return promptly with a partial result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var m0 arch.Mapping
	pprof.Do(ctx, pprof.Labels("phase", "place"), func(context.Context) {
		m0, err = place.Place(d, place.DefaultConfig())
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "placement: %v\n", err)
		return 1
	}
	res0 := timing.Analyze(d, m0)
	s0 := arch.ComputeStress(d, m0)
	fmt.Printf("\naging-unaware floorplan: CPD %.3f ns (clock %.1f ns), max stress %.3f, mean %.3f\n",
		res0.CPD, d.ClockPeriodNs, s0.Max(), s0.Mean())
	fmt.Println("accumulated stress map:")
	fmt.Print(arch.RenderStress(s0))

	opts := core.DefaultOptions()
	opts.Seed = *seed
	opts.WarmHeuristics = *warmH
	opts.Trace = tracer
	switch *mode {
	case "freeze":
		opts.Mode = core.Freeze
	case "rotate":
		opts.Mode = core.Rotate
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		return 2
	}
	// Flight recorder: only attached when an output was requested, so the
	// default path journals nothing.
	var rec *flight.Recorder
	if (*journalF != "" || *kernProfF != "") && *flightEvs >= 0 {
		rec = flight.NewRecorder(*flightEvs)
		if *kernProfF != "" {
			rec.EnableKernel(0)
		}
		opts.Flight = rec
	}
	// Reject nonsense flag combinations with the library's own
	// diagnostics before any work is queued.
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Live status line: the solver writes its progress to a reporter,
	// and a goroutine repaints one stderr line from it until the flow
	// returns.
	stopProgress := func() {}
	if *progress {
		opts.Progress = obs.NewReporter()
		stopProgress = startProgressLine(opts.Progress, os.Stderr)
	}

	start := time.Now()
	var r *core.Result
	pprof.Do(ctx, pprof.Labels("phase", "remap"), func(context.Context) {
		r, err = core.Remap(ctx, d, m0, opts)
	})
	stopProgress()
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "remap: interrupted (partial statistics follow)")
		fmt.Fprintf(os.Stderr, "solver effort so far: %d LP solves, %d simplex iterations, %d ST probes\n",
			r.Stats.LPSolves, r.Stats.SimplexIters, r.Stats.STProbes)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "remap: %v\n", err)
		return 1
	}
	s1 := arch.ComputeStress(d, r.Mapping)
	fmt.Printf("\naging-aware floorplan (%v, %v): ST_target %.3f (lower bound %.3f)\n",
		opts.Mode, time.Since(start).Round(time.Millisecond), r.STTarget, r.STLowerBound)
	if r.FallbackToFreeze {
		fmt.Println("note: rotation found nothing better; the Freeze floorplan was substituted")
	}
	fmt.Printf("max stress %.3f -> %.3f, CPD %.3f -> %.3f ns\n",
		r.OrigMaxStress, r.NewMaxStress, r.OrigCPD, r.NewCPD)
	fmt.Println("re-mapped stress map:")
	fmt.Print(arch.RenderStress(s1))

	var ratio float64
	var before *core.MTTFReport
	pprof.Do(ctx, pprof.Labels("phase", "evaluate"), func(context.Context) {
		ratio, err = core.MTTFIncrease(d, m0, r.Mapping, nbti.DefaultModel(), thermal.DefaultConfig())
		if err == nil {
			before, _ = core.Evaluate(d, m0, nbti.DefaultModel(), thermal.DefaultConfig())
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mttf: %v\n", err)
		return 1
	}
	fmt.Printf("\nMTTF: %.2f years -> %.2f years  (increase %.2fx)\n",
		before.Hours/8760, before.Hours*ratio/8760, ratio)
	fmt.Printf("solver effort: %d LP solves, %d ST probes\n",
		r.Stats.LPSolves, r.Stats.STProbes)
	fmt.Printf("simplex: %d iterations, %d warm starts (%d rejected)\n",
		r.Stats.SimplexIters, r.Stats.WarmStarts, r.Stats.WarmStartRejects)
	fmt.Printf("phase wall-clock: step1 %v, rotate %v, step2 %v, timing %v (elapsed %v)\n",
		r.Stats.Step1Time.Round(time.Millisecond), r.Stats.RotateTime.Round(time.Millisecond),
		r.Stats.Step2Time.Round(time.Millisecond), r.Stats.TimingTime.Round(time.Millisecond),
		r.Stats.Elapsed.Round(time.Millisecond))

	// One wide event per run: the CLI feeds the same longitudinal store
	// agingfloord reads, so batch experiments and served jobs land in one
	// history. Best-effort — a telemetry problem never fails the solve.
	if *telemDir != "" {
		if p, err := telemetry.Open(telemetry.Config{Dir: *telemDir}); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		} else {
			ev := &telemetry.SolveEvent{
				Time:      time.Now(),
				Source:    telemetry.SourceCLI,
				Bench:     d.Name,
				Ops:       d.NumOps(),
				Contexts:  d.NumContexts,
				Mode:      *mode,
				Status:    r.Status.String(),
				ElapsedMs: float64(r.Stats.Elapsed) / float64(time.Millisecond),
			}
			ev.FillStats(r.Stats)
			ev.FillKernel(rec.KernelSnapshot())
			p.Record(ev)
			if err := p.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			} else {
				fmt.Println("recorded solve telemetry in", *telemDir)
			}
		}
	}

	if rec != nil {
		journal := rec.Snapshot()
		if *journalF != "" {
			f, err := os.Create(*journalF)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if err := journal.WriteJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				f.Close()
				return 1
			}
			f.Close()
			fmt.Println("wrote flight journal to", *journalF)
		}
		if *kernProfF != "" {
			out := struct {
				Kernel *flight.Kernel `json:"kernel"`
			}{journal.Kernel}
			data, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if err := os.WriteFile(*kernProfF, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("wrote kernel profile to %s (%.1f%% of LP wall-clock attributed to phases)\n",
				*kernProfF, 100*journal.Kernel.Coverage())
		}
	}

	if *metricsF != "" {
		f, err := os.Create(*metricsF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := reg.WritePrometheus(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			f.Close()
			return 1
		}
		f.Close()
		fmt.Println("wrote metrics snapshot to", *metricsF)
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		err = arch.WriteJSON(f, d, map[string]arch.Mapping{
			"baseline":    m0,
			"aging_aware": r.Mapping,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println("saved floorplans to", *save)
	}
	return 0
}

// startProgressLine repaints one carriage-return status line from the
// reporter's latest snapshot (200ms cadence, repainting only on news)
// until the returned stop function is called; stop clears the line and
// waits for the painter to exit so normal output never interleaves with
// a half-drawn line.
func startProgressLine(rep *obs.Reporter, w io.Writer) func() {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		var lastSeq uint64
		for {
			select {
			case <-done:
				fmt.Fprint(w, "\r\033[K")
				return
			case <-tick.C:
			}
			p := rep.Latest()
			if p.Seq == lastSeq {
				continue
			}
			lastSeq = p.Seq
			line := fmt.Sprintf("phase %-6s", p.Phase)
			if p.STTarget > 0 {
				line += fmt.Sprintf("  ST %.3f", p.STTarget)
			}
			if p.STProbes > 0 {
				line += fmt.Sprintf("  probes %d", p.STProbes)
			}
			if p.RelaxRounds > 0 {
				line += fmt.Sprintf("  rounds %d", p.RelaxRounds)
			}
			if p.Batches > 0 {
				line += fmt.Sprintf("  batch %d/%d", p.Batch, p.Batches)
			}
			if p.LPSolves > 0 {
				line += fmt.Sprintf("  LP %d (%d iters)", p.LPSolves, p.SimplexIters)
			}
			fmt.Fprintf(w, "\r\033[K%s", line)
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func buildDesign(kernel, benchName, srcFile, fabric string) (*arch.Design, error) {
	parseFabric := func() (arch.Fabric, error) {
		var w, h int
		if _, err := fmt.Sscanf(fabric, "%dx%d", &w, &h); err != nil {
			return arch.Fabric{}, fmt.Errorf("bad -fabric %q: %v", fabric, err)
		}
		return arch.Fabric{W: w, H: h}, nil
	}
	switch {
	case (kernel != "" && benchName != "") || (kernel != "" && srcFile != "") || (benchName != "" && srcFile != ""):
		return nil, fmt.Errorf("choose exactly one of -kernel, -bench, -src")
	case srcFile != "":
		src, err := os.ReadFile(srcFile)
		if err != nil {
			return nil, err
		}
		res, err := frontend.CompileSource(string(src))
		if err != nil {
			return nil, err
		}
		fmt.Printf("compiled %s: inputs %v, outputs %v\n", srcFile, res.Inputs, res.Outputs)
		f, err := parseFabric()
		if err != nil {
			return nil, err
		}
		return hls.BuildDesign(srcFile, res.Graph, f, hls.DefaultConfig())
	case benchName != "":
		spec, ok := bench.SpecByName(benchName)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (want B1..B27)", benchName)
		}
		return bench.Synthesize(spec)
	case kernel != "":
		mk, ok := dfg.Kernels[kernel]
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		f, err := parseFabric()
		if err != nil {
			return nil, err
		}
		return hls.BuildDesign(kernel, mk(), f, hls.DefaultConfig())
	default:
		return nil, fmt.Errorf("need -kernel, -bench, or -src")
	}
}
