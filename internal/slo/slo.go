// Package slo is the service-level-objective engine for agingfloord:
// declarative objectives over the telemetry event stream, windowed SLIs,
// error-budget tracking, and Google-SRE-style multi-window burn-rate
// alerting.
//
// The engine deliberately does NOT read the telemetry aggregation ring:
// the slow burn pair needs a 6-hour window, twice the default ring span,
// and objective classification needs only two integers per event. So the
// engine keeps its own telemetry.Ring of per-objective good/eligible
// counters (tiny: two int64 per objective per minute cell), which slots,
// drops and windows events by the same rule as the aggregation ring,
// and subscribes to the pipeline through telemetry.Config.Observers —
// which also feeds it the durable history replayed at open, so error
// budgets survive restarts.
//
// Alerting follows the multi-window multi-burn-rate recipe: a "fast"
// pair (5m + 1h) catches sharp regressions within minutes, a "slow" pair
// (30m + 6h) catches slow bleeds; each pair fires only when BOTH of its
// windows burn past the pair's threshold, so a brief spike that the long
// window has already absorbed does not page anyone. Thresholds are
// clamped per objective: a target of 0.90 caps the achievable burn rate
// at 1/(1-0.90) = 10, so the canonical 14.4 would be unreachable and the
// defaults scale with the budget instead.
package slo

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"agingfp/internal/obs"
	"agingfp/internal/telemetry"
)

// Kind classifies what an objective measures.
type Kind string

const (
	// KindAvailability: the fraction of terminal, non-canceled jobs that
	// did not fail. Cache hits count (they are served requests).
	KindAvailability Kind = "availability"
	// KindLatency: the fraction of solved jobs in one shape bucket that
	// finished under the objective's latency target.
	KindLatency Kind = "latency"
)

// Objective is one declarative service-level objective.
type Objective struct {
	// Name keys the objective everywhere: /v1/slo, the slo= metric
	// label, and the burn-rate alert log line.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Kind        Kind   `json:"kind"`
	// Target is the good-fraction objective (e.g. 0.99 = "99% of
	// eligible events are good"). Must be < 1 — a zero error budget
	// makes burn rates undefined; New clamps to 0.9999.
	Target float64 `json:"target"`

	// Shape scopes a latency objective to one telemetry shape bucket
	// (telemetry.SolveEvent.ShapeBucket); LatencyTargetMs is its per-job bound.
	// Both are ignored for availability objectives.
	Shape           string  `json:"shape,omitempty"`
	LatencyTargetMs float64 `json:"latency_target_ms,omitempty"`

	// FastBurn / SlowBurn override the pair thresholds (0 = derived:
	// fast = min(14.4, 0.5/(1-target)), slow = min(6, 0.25/(1-target))).
	FastBurn float64 `json:"fast_burn,omitempty"`
	SlowBurn float64 `json:"slow_burn,omitempty"`
}

// classify maps one event onto the objective: whether it is eligible at
// all, and if so whether it was good.
func (o *Objective) classify(ev *telemetry.SolveEvent) (eligible, good bool) {
	switch o.Kind {
	case KindAvailability:
		if ev.Canceled() {
			return false, false // the client walked away; not an outcome
		}
		return true, !ev.Failed()
	case KindLatency:
		if !ev.Solved() || ev.ShapeBucket() != o.Shape {
			return false, false
		}
		return true, ev.ElapsedMs <= o.LatencyTargetMs
	default:
		return false, false
	}
}

// fastBurn / slowBurn resolve the pair thresholds with the
// budget-scaled clamp applied.
func (o *Objective) fastBurn() float64 {
	if o.FastBurn > 0 {
		return o.FastBurn
	}
	return math.Min(14.4, 0.5/(1-o.Target))
}

func (o *Objective) slowBurn() float64 {
	if o.SlowBurn > 0 {
		return o.SlowBurn
	}
	return math.Min(6, 0.25/(1-o.Target))
}

// The two alert pairs: each fires only when both of its windows burn
// past the pair threshold.
var (
	fastPair = burnPair{name: "fast", short: 5 * time.Minute, long: time.Hour}
	slowPair = burnPair{name: "slow", short: 30 * time.Minute, long: 6 * time.Hour}
)

type burnPair struct {
	name        string
	short, long time.Duration
}

// ringStep is the width of one counter-ring slot; the ring holds
// enough slots to evaluate the slow pair's long window (6h).
const ringStep = time.Minute

// Config wires the engine.
type Config struct {
	// Registry receives the budget and burn-rate gauges; Logger the
	// burn alerts. Both may be nil.
	Registry *obs.Registry
	Logger   *slog.Logger
	// Now injects a clock for tests (nil = time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sloCell is one ring slot: per-objective good and eligible counts,
// indexed in objective declaration order.
type sloCell struct {
	good     []int64
	eligible []int64
}

// pairState latches each pair's alert per objective so the slog alert
// is edge-triggered (fires on the false→true transition, logs recovery
// on true→false) rather than spamming every event.
type pairState struct {
	fast, slow bool
}

// Engine evaluates a fixed objective set against the event stream.
// Nil-safe: every method on a nil *Engine is a no-op or zero value, so
// serve wires it unconditionally.
type Engine struct {
	cfg  Config
	objs []Objective

	mu     sync.Mutex
	ring   *telemetry.Ring[sloCell]
	alerts []pairState
}

// New builds an engine for the given objectives. Objective names must
// be unique (later duplicates are dropped); targets are clamped into
// (0, 0.9999].
func New(objs []Objective, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	seen := map[string]bool{}
	kept := make([]Objective, 0, len(objs))
	for _, o := range objs {
		if o.Name == "" || seen[o.Name] {
			continue
		}
		seen[o.Name] = true
		if o.Target >= 1 {
			o.Target = 0.9999
		}
		if o.Target <= 0 {
			o.Target = 0.99
		}
		kept = append(kept, o)
	}
	e := &Engine{
		cfg:    cfg,
		objs:   kept,
		ring:   telemetry.NewRing[sloCell](ringStep, int(slowPair.long/ringStep)+1),
		alerts: make([]pairState, len(kept)),
	}
	// Publish the gauges at boot so dashboards see a full budget and a
	// zero burn before the first event, not an absent series.
	for i := range e.objs {
		e.publish(i)
	}
	return e
}

// Record folds one event into the counter ring and re-evaluates the
// event's objectives (gauges updated, alerts edge-triggered). Intended
// to be wired as a telemetry.Config observer.
func (e *Engine) Record(ev *telemetry.SolveEvent) {
	if e == nil || ev == nil {
		return
	}
	when := ev.Time
	if when.IsZero() {
		when = e.cfg.Now()
	}

	touched := make([]int, 0, len(e.objs))
	e.mu.Lock()
	c := e.ring.Slot(when)
	if c == nil {
		e.mu.Unlock()
		return // beyond the ring horizon
	}
	if c.good == nil {
		*c = sloCell{
			good:     make([]int64, len(e.objs)),
			eligible: make([]int64, len(e.objs)),
		}
	}
	for i := range e.objs {
		eligible, good := e.objs[i].classify(ev)
		if !eligible {
			continue
		}
		c.eligible[i]++
		if good {
			c.good[i]++
		}
		touched = append(touched, i)
	}
	e.mu.Unlock()

	for _, i := range touched {
		e.publish(i)
	}
}

// counts merges the ring over the trailing window.
func (e *Engine) counts(obj int, window time.Duration) (good, eligible int64) {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ring.Each(now, window, func(c *sloCell) {
		good += c.good[obj]
		eligible += c.eligible[obj]
	})
	return good, eligible
}

// burnRate is the error rate over the window divided by the error
// budget rate: 1.0 means the budget is being spent exactly at the rate
// that exhausts it over the budget window; 0 with no eligible traffic.
func (e *Engine) burnRate(obj int, window time.Duration) float64 {
	good, eligible := e.counts(obj, window)
	if eligible == 0 {
		return 0
	}
	errRate := float64(eligible-good) / float64(eligible)
	return errRate / (1 - e.objs[obj].Target)
}

// budgetRemaining is the fraction of the error budget left over the
// window (negative = overspent; 1 with no traffic).
func (e *Engine) budgetRemaining(obj int, window time.Duration) float64 {
	good, eligible := e.counts(obj, window)
	if eligible == 0 {
		return 1
	}
	budget := float64(eligible) * (1 - e.objs[obj].Target)
	return 1 - float64(eligible-good)/budget
}

// evaluate computes the current pair alerts for one objective.
func (e *Engine) evaluate(obj int) (st pairState, burns map[string]float64) {
	o := &e.objs[obj]
	burns = map[string]float64{}
	for _, pair := range []burnPair{fastPair, slowPair} {
		burns[pair.short.String()] = e.burnRate(obj, pair.short)
		burns[pair.long.String()] = e.burnRate(obj, pair.long)
	}
	st.fast = burns[fastPair.short.String()] >= o.fastBurn() && burns[fastPair.long.String()] >= o.fastBurn()
	st.slow = burns[slowPair.short.String()] >= o.slowBurn() && burns[slowPair.long.String()] >= o.slowBurn()
	return st, burns
}

// publish refreshes one objective's gauges and edge-triggers its burn
// alerts.
func (e *Engine) publish(obj int) {
	o := &e.objs[obj]
	st, burns := e.evaluate(obj)
	reg := e.cfg.Registry
	reg.Gauge(obs.Labeled("agingfp_slo_error_budget_remaining", "slo", o.Name)).Set(e.budgetRemaining(obj, 0))
	for window, burn := range burns {
		reg.Gauge(obs.Labeled(obs.Labeled("agingfp_slo_burn_rate", "slo", o.Name), "window", window)).Set(burn)
	}

	e.mu.Lock()
	prev := e.alerts[obj]
	e.alerts[obj] = st
	e.mu.Unlock()

	if e.cfg.Logger == nil {
		return
	}
	log := func(pair burnPair, threshold float64, firing bool) {
		level, msg := slog.LevelWarn, "SLO burn-rate alert"
		if !firing {
			level, msg = slog.LevelInfo, "SLO burn-rate alert cleared"
		}
		e.cfg.Logger.LogAttrs(context.Background(), level, msg,
			slog.String("slo", o.Name),
			slog.String("pair", pair.name),
			slog.Float64("burn_short", burns[pair.short.String()]),
			slog.Float64("burn_long", burns[pair.long.String()]),
			slog.Float64("threshold", threshold),
			slog.String("windows", pair.short.String()+"+"+pair.long.String()),
		)
	}
	if st.fast != prev.fast {
		log(fastPair, o.fastBurn(), st.fast)
	}
	if st.slow != prev.slow {
		log(slowPair, o.slowBurn(), st.slow)
	}
}

// ObjectiveStatus is one objective's entry in the /v1/slo document.
type ObjectiveStatus struct {
	Name            string  `json:"name"`
	Description     string  `json:"description,omitempty"`
	Kind            Kind    `json:"kind"`
	Target          float64 `json:"target"`
	Shape           string  `json:"shape,omitempty"`
	LatencyTargetMs float64 `json:"latency_target_ms,omitempty"`

	// Eligible / Good / SLI describe the status window; SLI is 1 with no
	// eligible traffic (an idle service is meeting its objectives).
	Eligible int64   `json:"eligible"`
	Good     int64   `json:"good"`
	SLI      float64 `json:"sli"`

	// ErrorBudgetRemaining is the budget fraction left over the status
	// window (negative = overspent).
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`

	// BurnRates keys burn by window ("5m0s", "30m0s", "1h0m0s",
	// "6h0m0s"); FastBurnThreshold / SlowBurnThreshold are the pair
	// trip points after the budget-scaled clamp.
	BurnRates         map[string]float64 `json:"burn_rates"`
	FastBurnThreshold float64            `json:"fast_burn_threshold"`
	SlowBurnThreshold float64            `json:"slow_burn_threshold"`
	FastAlert         bool               `json:"fast_alert"`
	SlowAlert         bool               `json:"slow_alert"`
	Alerting          bool               `json:"alerting"`
}

// Status is the GET /v1/slo payload.
type Status struct {
	Window     string            `json:"window"`
	Since      time.Time         `json:"since"`
	Until      time.Time         `json:"until"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// Status evaluates every objective over the trailing window (0 = the
// full ring span). Nil on a nil engine.
func (e *Engine) Status(window time.Duration) *Status {
	if e == nil {
		return nil
	}
	window = e.ring.Clamp(window)
	now := e.cfg.Now()
	out := &Status{
		Window: window.String(),
		Since:  now.Add(-window),
		Until:  now,
	}
	for i := range e.objs {
		o := &e.objs[i]
		good, eligible := e.counts(i, window)
		st, burns := e.evaluate(i)
		os := ObjectiveStatus{
			Name:                 o.Name,
			Description:          o.Description,
			Kind:                 o.Kind,
			Target:               o.Target,
			Shape:                o.Shape,
			LatencyTargetMs:      o.LatencyTargetMs,
			Eligible:             eligible,
			Good:                 good,
			SLI:                  1,
			ErrorBudgetRemaining: e.budgetRemaining(i, window),
			BurnRates:            burns,
			FastBurnThreshold:    o.fastBurn(),
			SlowBurnThreshold:    o.slowBurn(),
			FastAlert:            st.fast,
			SlowAlert:            st.slow,
			Alerting:             st.fast || st.slow,
		}
		if eligible > 0 {
			os.SLI = float64(good) / float64(eligible)
		}
		out.Objectives = append(out.Objectives, os)
	}
	sort.Slice(out.Objectives, func(i, j int) bool { return out.Objectives[i].Name < out.Objectives[j].Name })
	return out
}

// Availability builds the standard availability objective.
func Availability(target float64) Objective {
	return Objective{
		Name:        "availability",
		Description: fmt.Sprintf("%.4g of terminal non-canceled jobs do not fail", target),
		Kind:        KindAvailability,
		Target:      target,
	}
}

// ReferenceWorstMs is each shape bucket's worst whole-benchmark time,
// both re-mapping arms, in ms, over Table-I's B1, B4, B7, B10 and B13:
// the last perf baseline the repo recorded (B1, B10, B4 and B7 set the
// four buckets). agingfloord scales it by -slo-latency-factor into its
// latency objectives.
var ReferenceWorstMs = map[string]float64{
	"ops<=32,ctx<=4":   18,
	"ops<=64,ctx<=4":   44,
	"ops<=64,ctx<=8":   348,
	"ops<=128,ctx<=16": 615,
}

// DefaultObjectives is the daemon's stock objective set: availability
// at availTarget plus one latency objective per shape bucket of
// worstMs. A latency target is the bucket's worst time × latencyFactor
// (live solves share hardware with other jobs, so the bound is
// deliberately loose), and the objective asks that 90% of solved jobs
// in the bucket finish under it. A nil worstMs or a non-positive factor
// yields availability only.
func DefaultObjectives(availTarget float64, worstMs map[string]float64, latencyFactor float64) []Objective {
	objs := []Objective{Availability(availTarget)}
	if latencyFactor <= 0 {
		return objs
	}
	buckets := make([]string, 0, len(worstMs))
	for b := range worstMs {
		buckets = append(buckets, b)
	}
	sort.Strings(buckets)
	for _, b := range buckets {
		target := worstMs[b] * latencyFactor
		objs = append(objs, Objective{
			Name:            "latency-" + b,
			Description:     fmt.Sprintf("90%% of %s solves finish under %.0fms (reference worst × %.2g)", b, target, latencyFactor),
			Kind:            KindLatency,
			Target:          0.90,
			Shape:           b,
			LatencyTargetMs: target,
		})
	}
	return objs
}
