package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/core"
	"agingfp/internal/milp"
	"agingfp/internal/nbti"
	"agingfp/internal/obs"
	"agingfp/internal/place"
	"agingfp/internal/thermal"
	"agingfp/internal/timing"
)

// Config parameterizes a suite run.
type Config struct {
	// Remap tunes the re-mapper; zero value selects core.DefaultOptions.
	Remap core.Options
	// Model is the NBTI calibration; zero value selects the default.
	Model nbti.Model
	// Thermal is the compact thermal calibration; zero value selects the
	// default.
	Thermal thermal.Config
	// Scale < 1 shrinks benchmarks linearly (fabric sides x Scale, ops x
	// Scale^2), preserving context counts and utilization bands; used to
	// run the 16x16 rows on small compute budgets.
	Scale float64
	// ScaleThreshold applies Scale only to fabrics with at least this
	// many PEs (default 256, i.e. only the 16x16 rows).
	ScaleThreshold int
	// Verbose prints per-benchmark progress.
	Verbose bool
	// Parallel runs this many benchmarks concurrently (each benchmark is
	// single-threaded and independently seeded, so results are identical
	// to a serial run); 0 or 1 runs serially.
	Parallel int
	// Progress receives per-benchmark log lines when non-nil.
	Progress func(string)
	// Trace observes the suite: one "bench.run" span per benchmark whose
	// end event carries the structured result (increases, CPDs, LP-solve
	// counts), with the re-mapper's own spans nested beneath it. Copied
	// into Remap.Trace unless the caller set that separately. nil (the
	// default) costs nothing.
	Trace *obs.Tracer
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{
		Remap:          core.DefaultOptions(),
		Model:          nbti.DefaultModel(),
		Thermal:        thermal.DefaultConfig(),
		Scale:          1.0,
		ScaleThreshold: 256,
	}
}

// Result is the outcome of running one benchmark through the full flow.
type Result struct {
	Spec Spec
	// RunOps/RunFabric are the actually-run workload parameters (after
	// any scaling).
	RunOps    int
	RunFabric arch.Fabric

	// OrigCPD is the aging-unaware floorplan's critical path delay (ns);
	// FreezeCPD/RotateCPD are the re-mapped delays (never larger).
	OrigCPD, FreezeCPD, RotateCPD float64
	// OrigMaxStress and the re-mapped maxima.
	OrigMaxStress, FreezeMaxStress, RotateMaxStress float64
	// MTTF increases (x) versus the aging-unaware floorplan — the
	// quantities Table I reports.
	FreezeIncrease, RotateIncrease float64
	// OrigMTTFHours is the baseline MTTF.
	OrigMTTFHours float64
	// FreezeStatus/RotateStatus classify what each arm's search achieved
	// (milp.Feasible: found a floorplan; milp.Infeasible: proven none;
	// milp.NodeLimit: probes hit their time budget — NOT infeasibility;
	// milp.Optimal: baseline already level). See core.Result.Status.
	FreezeStatus, RotateStatus milp.Status
	// Stats from the two re-mapping runs.
	FreezeStats, RotateStats core.Stats
	// Elapsed is the wall-clock time for the whole benchmark.
	Elapsed time.Duration
}

// Run executes the full flow for one spec: synthesize, baseline-place,
// re-map in both Freeze and Rotate modes, and evaluate MTTF ratios.
// Cancellation propagates into the re-mapper; a canceled run returns
// ctx.Err().
func Run(ctx context.Context, spec Spec, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	origSpec := spec
	if cfg.Scale > 0 && cfg.Scale < 1 {
		threshold := cfg.ScaleThreshold
		if threshold <= 0 {
			threshold = 256
		}
		if spec.Fabric.NumPEs() >= threshold {
			spec = spec.Scaled(cfg.Scale)
		}
	}
	if cfg.Model.A == 0 {
		cfg.Model = nbti.DefaultModel()
	}
	if cfg.Thermal.RVertical == 0 {
		cfg.Thermal = thermal.DefaultConfig()
	}
	if cfg.Remap.PathThresholdFrac == 0 {
		cfg.Remap = core.DefaultOptions()
	}
	cfg.Remap.Seed = spec.Seed
	if cfg.Remap.Trace == nil {
		cfg.Remap.Trace = cfg.Trace
	}
	start := time.Now()
	bsp := cfg.Remap.Trace.Start("bench.run",
		obs.String("name", spec.Name), obs.Int("contexts", spec.Contexts),
		obs.String("band", spec.Band.String()), obs.Int64("seed", spec.Seed))
	cfg.Remap.TraceParent = bsp
	// The span's end event is the structured per-benchmark result record.
	var r *Result
	defer func() {
		if r == nil {
			bsp.End(obs.String("status", "error"))
			return
		}
		bsp.End(obs.String("status", "ok"),
			obs.Float("freeze_increase", r.FreezeIncrease),
			obs.Float("rotate_increase", r.RotateIncrease),
			obs.Float("orig_cpd", r.OrigCPD),
			obs.Float("rotate_cpd", r.RotateCPD),
			obs.Int("lp_solves", r.FreezeStats.LPSolves+r.RotateStats.LPSolves),
			obs.Duration("step1", r.RotateStats.Step1Time),
			obs.Duration("rotate", r.RotateStats.RotateTime),
			obs.Duration("step2", r.RotateStats.Step2Time),
			obs.Duration("timing", r.RotateStats.TimingTime))
	}()
	d, err := Synthesize(spec)
	if err != nil {
		return nil, err
	}
	m0, err := place.Place(d, place.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
	}
	res0 := timing.Analyze(d, m0)
	before, err := core.Evaluate(d, m0, cfg.Model, cfg.Thermal)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
	}

	fr, ro, err := core.RemapBoth(ctx, d, m0, cfg.Remap)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
	}
	if !fr.Improved && !ro.Improved {
		// Both searches struck out on this seed; one retry with a
		// different search seed recovers plain search-noise failures
		// (the MILP feasibility dive is randomized).
		retry := cfg.Remap
		retry.Seed = spec.Seed + 9173
		fr2, ro2, err := core.RemapBoth(ctx, d, m0, retry)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
		}
		if fr2.Improved || ro2.Improved {
			fr, ro = fr2, ro2
		}
	}
	afterF, err := core.Evaluate(d, fr.Mapping, cfg.Model, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	afterR, err := core.Evaluate(d, ro.Mapping, cfg.Model, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	// The complete method keeps the better floorplan; RemapBoth compares
	// by max stress, but MTTF also depends on the thermal placement, so
	// re-compare by the actual reliability objective here.
	if afterF.Hours > afterR.Hours {
		ro, afterR = fr, afterF
	}

	// Result.Spec keeps the ORIGINAL Table-I identity (so grouping and
	// paper comparisons stay aligned); RunOps/RunFabric describe the
	// actually-run (possibly scaled) workload.
	r = &Result{
		Spec:            origSpec,
		RunOps:          d.NumOps(),
		RunFabric:       d.Fabric,
		OrigCPD:         res0.CPD,
		FreezeCPD:       fr.NewCPD,
		RotateCPD:       ro.NewCPD,
		FreezeStatus:    fr.Status,
		RotateStatus:    ro.Status,
		OrigMaxStress:   before.MaxStress,
		FreezeMaxStress: afterF.MaxStress,
		RotateMaxStress: afterR.MaxStress,
		FreezeIncrease:  afterF.Hours / before.Hours,
		RotateIncrease:  afterR.Hours / before.Hours,
		OrigMTTFHours:   before.Hours,
		FreezeStats:     fr.Stats,
		RotateStats:     ro.Stats,
		Elapsed:         time.Since(start),
	}
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf("%-4s ctx=%2d fab=%-6v ops=%4d util=%.2f  freeze %.2fx  rotate %.2fx  (paper %.2f/%.2f)  cpd %.2f->%.2f  %s",
			spec.Name, spec.Contexts, d.Fabric, d.NumOps(), spec.Utilization(),
			r.FreezeIncrease, r.RotateIncrease, spec.PaperFreeze, spec.PaperRotate,
			r.OrigCPD, r.RotateCPD, r.Elapsed.Round(time.Millisecond)))
	}
	return r, nil
}

// RunSuite runs a list of specs, returning results in spec order. With
// cfg.Parallel > 1 the benchmarks run concurrently on a worker pool.
// The first failure stops dispatching (in-flight benchmarks finish), and
// the returned error names the spec that failed. A canceled ctx also
// stops dispatching; benchmarks already running finish their own
// cancellation promptly via the re-mapper's ctx polling.
func RunSuite(ctx context.Context, specs []Spec, cfg Config) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Parallel
	if workers <= 1 {
		var out []*Result
		for _, s := range specs {
			r, err := Run(ctx, s, cfg)
			if err != nil {
				return out, fmt.Errorf("bench: spec %s: %w", s.Name, err)
			}
			out = append(out, r)
		}
		return out, nil
	}
	out := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	jobs := make(chan int)
	failed := make(chan struct{})
	var failOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				r, err := Run(ctx, specs[i], cfg)
				if err != nil {
					errs[i] = fmt.Errorf("bench: spec %s: %w", specs[i].Name, err)
					failOnce.Do(func() { close(failed) })
					continue
				}
				out[i] = r
			}
		}()
	}
dispatch:
	for i := range specs {
		select {
		case jobs <- i:
		case <-failed:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	// Report the earliest failure in spec order, so reruns and error
	// messages are deterministic even when several workers failed.
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// FormatTableI renders results in the layout of the paper's Table I:
// rows by (context #, fabric), super-columns by usage band, with per-band
// and overall averages, and measured-vs-paper values side by side.
func FormatTableI(results []*Result) string {
	byKey := map[string]*Result{}
	for _, r := range results {
		byKey[r.Spec.Name] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-7s | %-28s | %-28s | %-28s\n", "ctx#", "fabric",
		"low usage  (frz/rot vs paper)", "medium usage (frz/rot vs paper)", "high usage (frz/rot vs paper)")
	type group struct{ ctx, fab int }
	groups := []group{{4, 4}, {4, 8}, {4, 16}, {8, 4}, {8, 8}, {8, 16}, {16, 4}, {16, 8}, {16, 16}}
	sumF := map[Band]float64{}
	sumR := map[Band]float64{}
	cnt := map[Band]int{}
	for _, g := range groups {
		cells := make([]string, 3)
		for _, r := range results {
			if r.Spec.Contexts != g.ctx || r.Spec.Fabric.W != g.fab {
				continue
			}
			band := r.Spec.Band
			name := r.Spec.Name
			if r.RunFabric != r.Spec.Fabric {
				name += "s" // scaled run (see EXPERIMENTS.md)
			}
			cells[int(band)] = fmt.Sprintf("%-4s %4d %4.2f/%4.2f (%4.2f/%4.2f)",
				name, r.RunOps, r.FreezeIncrease, r.RotateIncrease,
				r.Spec.PaperFreeze, r.Spec.PaperRotate)
			sumF[band] += r.FreezeIncrease
			sumR[band] += r.RotateIncrease
			cnt[band]++
		}
		fmt.Fprintf(&b, "%-5d %-7s | %-28s | %-28s | %-28s\n",
			g.ctx, fmt.Sprintf("%dx%d", g.fab, g.fab), cells[0], cells[1], cells[2])
	}
	fmt.Fprintf(&b, "%-13s |", "Avg.")
	for _, band := range []Band{Low, Medium, High} {
		if cnt[band] > 0 {
			fmt.Fprintf(&b, " freeze %.2f rotate %.2f (n=%d) |",
				sumF[band]/float64(cnt[band]), sumR[band]/float64(cnt[band]), cnt[band])
		} else {
			fmt.Fprintf(&b, " - |")
		}
	}
	total, n := 0.0, 0
	for _, band := range []Band{Low, Medium, High} {
		total += sumR[band]
		n += cnt[band]
	}
	if n > 0 {
		fmt.Fprintf(&b, "\nOverall rotate average: %.2fx (paper: 2.50x)\n", total/float64(n))
	}
	return b.String()
}

// FormatFig5 renders the Fig. 5 series: MTTF increase of the complete
// (Rotate) method grouped by configuration CxFy, three utilization bars
// per group.
func FormatFig5(results []*Result) string {
	var b strings.Builder
	b.WriteString("Fig. 5 — aging-aware re-mapping MTTF increase (x)\n")
	b.WriteString("config   low    medium  high   (paper: low/med/high)\n")
	type key struct{ ctx, fab int }
	rows := map[key][3]*Result{}
	var keys []key
	for _, r := range results {
		k := key{r.Spec.Contexts, r.Spec.Fabric.W}
		if _, seen := rows[k]; !seen {
			keys = append(keys, k)
		}
		v := rows[k]
		v[int(r.Spec.Band)] = r
		rows[k] = v
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ctx != keys[j].ctx {
			return keys[i].ctx < keys[j].ctx
		}
		return keys[i].fab < keys[j].fab
	})
	for _, k := range keys {
		v := rows[k]
		fmt.Fprintf(&b, "C%dF%-3d", k.ctx, k.fab)
		paper := make([]string, 0, 3)
		for band := 0; band < 3; band++ {
			if v[band] != nil {
				fmt.Fprintf(&b, " %6.2f", v[band].RotateIncrease)
				paper = append(paper, fmt.Sprintf("%.2f", v[band].Spec.PaperRotate))
			} else {
				b.WriteString("      -")
			}
		}
		fmt.Fprintf(&b, "   (%s)\n", strings.Join(paper, "/"))
	}
	// Also emit bars for quick visual comparison.
	b.WriteString("\n")
	for _, k := range keys {
		v := rows[k]
		for band := 0; band < 3; band++ {
			if v[band] == nil {
				continue
			}
			n := int(v[band].RotateIncrease * 10)
			if n > 60 {
				n = 60
			}
			fmt.Fprintf(&b, "C%dF%-3d %-6s %5.2fx %s\n", k.ctx, k.fab,
				Band(band), v[band].RotateIncrease, strings.Repeat("#", n))
		}
	}
	return b.String()
}
