// Solver-kernel profile types: the phase-attributed simplex effort a
// recorder accumulates when kernel profiling is armed (EnableKernel).
// The lp layer measures per solve; the solver (internal/core) arms it
// from KernelProfiling and contributes each profile via NoteKernel. The
// section is strictly opt-in — an unarmed recorder journals none of it,
// so existing journals stay byte-identical.
package flight

// Simplex phase names, shared between the lp profiler, the journal, and
// every exporter (metrics labels, report sections, dashboards).
const (
	PhaseSetup   = "setup"
	PhasePricing = "pricing"
	PhaseFtran   = "ftran"
	PhaseRatio   = "ratio"
	PhaseUpdate  = "update"
	PhaseRefresh = "refresh"
)

// PhaseOrder lists the simplex phases in pipeline order, for renderers
// that want a stable, meaningful ordering instead of alphabetical.
var PhaseOrder = []string{PhaseSetup, PhasePricing, PhaseFtran, PhaseRatio, PhaseUpdate, PhaseRefresh}

// KernelPhase is the accumulated effort of one simplex phase: how often
// it ran, how many of those runs were wall-clock sampled, and the
// extrapolated total nanoseconds attributed to it.
type KernelPhase struct {
	Count   int64 `json:"count"`
	Sampled int64 `json:"sampled"`
	Nanos   int64 `json:"nanos"`
}

// Kernel aggregates phase-attributed simplex effort across every
// profiled LP solve of one recorder's lifetime.
type Kernel struct {
	// Solves counts profiled LP solves merged into this aggregate.
	Solves int64 `json:"solves"`
	// TotalNanos is the measured wall-clock across those solves; the
	// per-phase Nanos should attribute nearly all of it (Coverage).
	TotalNanos int64 `json:"total_nanos"`
	// SampleRate is the iteration sampling stride the profiler used
	// (time every Nth iteration, extrapolate).
	SampleRate int `json:"sample_rate"`
	// RefreshEvery is the primal-refresh cadence (iterations between
	// refreshes) the profiled solves ran with.
	RefreshEvery int `json:"refresh_every"`
	// MaxM/MaxN are the largest basis dimension and column count seen;
	// BinvBytes is the most basis-inverse storage one solve materialized
	// (its materialized rows times 8·M, plus 8·M for the diagonal of the
	// rows it never wrote).
	MaxM      int   `json:"max_m"`
	MaxN      int   `json:"max_n"`
	BinvBytes int64 `json:"binv_bytes"`
	// Iters/Degenerate/Refreshes sum the per-solve counters;
	// MaxDegenerateRun is the longest consecutive degenerate-pivot run
	// observed in any single solve.
	Iters            int64 `json:"iters"`
	Degenerate       int64 `json:"degenerate"`
	MaxDegenerateRun int   `json:"max_degenerate_run"`
	Refreshes        int64 `json:"refreshes"`
	// Phases is the phase-attributed effort, keyed by Phase* name.
	Phases map[string]*KernelPhase `json:"phases,omitempty"`
	// FamilyPivots counts simplex pivots by the constraint family of the
	// leaving row (the flight recorder's family taxonomy plus "capacity",
	// "wire-axis", and "other"), attributing kernel effort to the
	// formulation rows that drive it.
	FamilyPivots map[string]int64 `json:"family_pivots,omitempty"`
}

// Coverage reports the fraction of measured wall-clock the named phases
// account for; the CI gate asserts >= 0.95. Nil-safe.
func (k *Kernel) Coverage() float64 {
	if k == nil || k.TotalNanos <= 0 {
		return 0
	}
	var attr int64
	for _, ph := range k.Phases {
		attr += ph.Nanos
	}
	return float64(attr) / float64(k.TotalNanos)
}

// merge folds one solve's contribution into the aggregate.
func (k *Kernel) merge(c *Kernel) {
	k.Solves += c.Solves
	k.TotalNanos += c.TotalNanos
	if c.SampleRate > 0 {
		k.SampleRate = c.SampleRate
	}
	if c.RefreshEvery > 0 {
		k.RefreshEvery = c.RefreshEvery
	}
	if c.MaxM > k.MaxM {
		k.MaxM = c.MaxM
	}
	if c.MaxN > k.MaxN {
		k.MaxN = c.MaxN
	}
	if c.BinvBytes > k.BinvBytes {
		k.BinvBytes = c.BinvBytes
	}
	k.Iters += c.Iters
	k.Degenerate += c.Degenerate
	if c.MaxDegenerateRun > k.MaxDegenerateRun {
		k.MaxDegenerateRun = c.MaxDegenerateRun
	}
	k.Refreshes += c.Refreshes
	for name, ph := range c.Phases {
		if k.Phases == nil {
			k.Phases = make(map[string]*KernelPhase)
		}
		dst := k.Phases[name]
		if dst == nil {
			dst = &KernelPhase{}
			k.Phases[name] = dst
		}
		dst.Count += ph.Count
		dst.Sampled += ph.Sampled
		dst.Nanos += ph.Nanos
	}
	for fam, n := range c.FamilyPivots {
		if k.FamilyPivots == nil {
			k.FamilyPivots = make(map[string]int64)
		}
		k.FamilyPivots[fam] += n
	}
}

// clone deep-copies the aggregate so callers can serialize it while the
// recorder keeps merging.
func (k *Kernel) clone() *Kernel {
	if k == nil {
		return nil
	}
	out := *k
	if k.Phases != nil {
		out.Phases = make(map[string]*KernelPhase, len(k.Phases))
		for name, ph := range k.Phases {
			cp := *ph
			out.Phases[name] = &cp
		}
	}
	out.FamilyPivots = copyCounts(k.FamilyPivots)
	return &out
}

// EnableKernel arms kernel profiling on the recorder: every LP solve
// of a flow journaling into this recorder (explicitly or via the
// context) is profiled at the given sampling rate (0 selects the lp
// default) and contributed via NoteKernel. Arm before the flow starts:
// the solver reads the setting once per job. Nil-safe.
func (r *Recorder) EnableKernel(rate int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kernelOn = true
	r.kernelRate = rate
}

// KernelProfiling reports whether kernel profiling is armed and the
// requested sampling rate (0 = solver default). Nil-safe.
func (r *Recorder) KernelProfiling() (rate int, on bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kernelRate, r.kernelOn
}

// NoteKernel merges one profiled LP solve's kernel contribution.
func (r *Recorder) NoteKernel(c *Kernel) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kernel == nil {
		r.kernel = &Kernel{}
	}
	r.kernel.merge(c)
}

// KernelSnapshot deep-copies the kernel aggregate (nil when no profiled
// solve contributed yet) without the cost of a full journal snapshot.
func (r *Recorder) KernelSnapshot() *Kernel {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kernel.clone()
}
