package telemetry

import (
	"fmt"
	"html"
	"sort"
	"strings"
	"time"

	"agingfp/internal/flight"
	"agingfp/internal/viz"
)

// Dashboard renders the operator view of the pipeline as one
// self-contained HTML document: no scripts, no external assets, inline
// SVG sparklines and a shape-over-time heatmap (internal/viz), stat
// tiles, and per-shape / per-benchmark tables. Colors ride CSS custom
// properties with a selected dark mode, so the page respects
// prefers-color-scheme without re-rendering.
//
// Everything the charts show is also in a table on the same page, so
// the view degrades to text (screen readers, curl) without loss.
//
// extra fragments are trusted pre-rendered HTML sections appended
// before </body> — the serve layer uses this for the SLO panel, which
// lives in internal/slo (telemetry cannot import it without a cycle).
func Dashboard(p *Pipeline, window time.Duration, service string, extra ...string) string {
	st := p.Stats(window)
	if st == nil {
		st = &WindowStats{Window: window.String()}
	}
	series := p.Series(window)
	shapes, cols, heat := []string(nil), []string(nil), [][]float64(nil)
	if p != nil {
		shapes, cols, heat = p.agg.ShapeHeat(window, 24)
	}

	jobsSeries := make([]float64, len(series))
	p90Series := make([]float64, len(series))
	for i, s := range series {
		jobsSeries[i] = float64(s.Jobs)
		p90Series[i] = s.P90Ms
	}

	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>agingfloord telemetry</title>
<style>
  :root {
    color-scheme: light dark;
    --surface-1: #fcfcfb; --surface-2: #f0efec;
    --text-primary: #0b0b0b; --text-secondary: #52514e;
    --series-1: #2a78d6;
    --seq-1:#cde2fb; --seq-2:#9ec5f4; --seq-3:#6da7ec; --seq-4:#3987e5;
    --seq-5:#256abf; --seq-6:#184f95; --seq-7:#0d366b;
    --status-good: #0ca30c; --status-critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      --surface-1: #1a1a19; --surface-2: #383835;
      --text-primary: #ffffff; --text-secondary: #c3c2b7;
      --series-1: #3987e5;
      --seq-1:#0d366b; --seq-2:#184f95; --seq-3:#256abf; --seq-4:#3987e5;
      --seq-5:#6da7ec; --seq-6:#9ec5f4; --seq-7:#cde2fb;
    }
  }
  body { background: var(--surface-1); color: var(--text-primary);
         font: 14px/1.45 system-ui, sans-serif; margin: 24px; }
  h1 { font-size: 18px; font-weight: 600; margin: 0 0 2px; }
  h2 { font-size: 14px; font-weight: 600; margin: 28px 0 8px; }
  .sub { color: var(--text-secondary); margin-bottom: 20px; }
  .sub a { color: var(--series-1); }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
  .tile { background: var(--surface-2); border-radius: 8px; padding: 12px 16px; min-width: 130px; }
  .tile .label { color: var(--text-secondary); font-size: 12px; }
  .tile .value { font-size: 26px; font-weight: 600; }
  .tile .hero { font-size: 48px; font-weight: 600; }
  .tile .unit { font-size: 13px; color: var(--text-secondary); }
  table { border-collapse: collapse; margin-top: 4px; }
  th, td { text-align: right; padding: 4px 12px; font-variant-numeric: tabular-nums; }
  th { color: var(--text-secondary); font-weight: 500; font-size: 12px; }
  th:first-child, td:first-child { text-align: left; }
  tr + tr td { border-top: 1px solid var(--surface-2); }
  .alert-bad { color: var(--status-critical); font-weight: 600; }
  .alert-ok { color: var(--status-good); }
  .spark { display: inline-block; vertical-align: middle; }
  .note { color: var(--text-secondary); font-size: 12px; margin-top: 6px; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s solve telemetry</h1>\n", html.EscapeString(service))
	fmt.Fprintf(&b, `<div class="sub">window %s · step %s · %s — %s · windows: `,
		html.EscapeString(st.Window), html.EscapeString(st.Step),
		st.Since.Format("15:04:05"), st.Until.Format("15:04:05"))
	for i, w := range []string{"5m", "15m", "1h", "3h"} {
		if i > 0 {
			b.WriteString(" · ")
		}
		fmt.Fprintf(&b, `<a href="?window=%s">%s</a>`, w, w)
	}
	b.WriteString("</div>\n")

	// Stat tiles: the hero is the windowed median solve time — the
	// paper's headline quantity, checked continuously.
	b.WriteString(`<div class="tiles">` + "\n")
	fmt.Fprintf(&b, `<div class="tile"><div class="label">p50 solve</div><div class="hero">%s</div><div class="unit">p90 %s · p99 %s</div></div>`+"\n",
		fmtMs(st.Total.P50Ms), fmtMs(st.Total.P90Ms), fmtMs(st.Total.P99Ms))
	tile(&b, "jobs", fmt.Sprintf("%d", st.Jobs), fmt.Sprintf("%.1f/min", st.JobsPerMin))
	tile(&b, "solved", fmt.Sprintf("%d", st.Total.Solved), fmt.Sprintf("%d failed · %d canceled", st.Total.Failures, st.Total.Canceled))
	tile(&b, "cache hit rate", fmt.Sprintf("%.0f%%", 100*st.CacheHitRate), fmt.Sprintf("%d hits", st.Total.CacheHits))
	tile(&b, "queue wait p99", fmtMs(st.QueueWaitP99Ms), "p50 "+fmtMs(st.QueueWaitP50Ms))
	b.WriteString("</div>\n")

	b.WriteString("<h2>Throughput (jobs per step)</h2>\n")
	fmt.Fprintf(&b, `<span class="spark">%s</span>`+"\n", viz.SparklineSVG(jobsSeries, 640, 48))
	b.WriteString("<h2>p90 solve time per step</h2>\n")
	fmt.Fprintf(&b, `<span class="spark">%s</span>`+"\n", viz.SparklineSVG(p90Series, 640, 48))

	if len(shapes) > 0 {
		b.WriteString("<h2>Traffic by workload shape</h2>\n")
		b.WriteString(viz.HeatmapSVG(shapes, thinLabels(cols), heat) + "\n")
		b.WriteString(`<div class="note">cell = jobs per time slice; darker = more (sequential ramp)</div>` + "\n")
	}

	// Solver-kernel panel: rendered only when profiled jobs contributed
	// phase medians (the daemon runs with -kernel-profile).
	if len(st.Total.PhaseP50Ms) > 0 {
		labels := make([]string, 0, len(st.Total.PhaseP50Ms))
		vals := make([]float64, 0, len(st.Total.PhaseP50Ms))
		for _, name := range flight.PhaseOrder {
			if ms, ok := st.Total.PhaseP50Ms[name]; ok {
				labels = append(labels, name)
				vals = append(vals, ms)
			}
		}
		b.WriteString("<h2>Solver kernel: median phase time per job</h2>\n")
		b.WriteString(viz.BarsSVG(labels, vals, "ms") + "\n")
		b.WriteString("<table><tr><th>phase</th><th>p50 per job</th></tr>\n")
		for i, name := range labels {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td></tr>\n", html.EscapeString(name), fmtMs(vals[i]))
		}
		b.WriteString("</table>\n")
		b.WriteString(`<div class="note">extrapolated from sampled simplex iterations (see the flight journal's kernel section for counts and coverage)</div>` + "\n")
	}

	if len(st.Shapes) > 0 {
		b.WriteString("<h2>Shape buckets</h2>\n<table><tr><th>shape</th><th>jobs</th><th>solved</th><th>p50</th><th>p90</th><th>p99</th><th>max</th><th>iters p50</th></tr>\n")
		for _, name := range sortedSummaryKeys(st.Shapes) {
			s := st.Shapes[name]
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%.0f</td></tr>\n",
				html.EscapeString(name), s.Jobs, s.Solved, fmtMs(s.P50Ms), fmtMs(s.P90Ms), fmtMs(s.P99Ms), fmtMs(s.MaxMs), s.SimplexItersP50)
		}
		b.WriteString("</table>\n")
	}

	// Per-tenant accounting panel: who consumed the solver, and through
	// which cache tier. Solve-time totals are exact sketch sums, so the
	// bars add up to the aggregate.
	if len(st.Tenants) > 0 {
		names := sortedSummaryKeys(st.Tenants)
		vals := make([]float64, len(names))
		for i, name := range names {
			vals[i] = st.Tenants[name].SolveMsTotal
		}
		b.WriteString("<h2>Tenants: solve time consumed</h2>\n")
		b.WriteString(viz.BarsSVG(names, vals, "ms") + "\n")
		b.WriteString("<table><tr><th>tenant</th><th>jobs</th><th>solved</th><th>failed</th><th>solve total</th><th>iters total</th><th>cache hit</th><th>queue p90</th></tr>\n")
		for _, name := range names {
			s := st.Tenants[name]
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%.0f</td><td>%.0f%%</td><td>%s</td></tr>\n",
				html.EscapeString(name), s.Jobs, s.Solved, s.Failures, fmtMs(s.SolveMsTotal), s.SimplexItersTotal, 100*s.CacheHitRate, fmtMs(s.QueueWaitP90Ms))
		}
		b.WriteString("</table>\n")
		b.WriteString(`<div class="note">identities past the tenant cap roll into "other"; totals are exact sums, so rows add up to the aggregate</div>` + "\n")
	}

	if len(st.Benchmarks) > 0 {
		b.WriteString("<h2>Benchmarks</h2>\n<table><tr><th>benchmark</th><th>jobs</th><th>p50</th><th>p99</th><th>iters p50</th><th>LP p50</th></tr>\n")
		for _, name := range sortedSummaryKeys(st.Benchmarks) {
			s := st.Benchmarks[name]
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%.0f</td><td>%.0f</td></tr>\n",
				html.EscapeString(name), s.Jobs, fmtMs(s.P50Ms), fmtMs(s.P99Ms), s.SimplexItersP50, s.LPSolvesP50)
		}
		b.WriteString("</table>\n")
	}

	for _, frag := range extra {
		b.WriteString(frag)
	}

	b.WriteString("</body></html>\n")
	return b.String()
}

// tile writes one stat tile.
func tile(b *strings.Builder, label, value, unit string) {
	fmt.Fprintf(b, `<div class="tile"><div class="label">%s</div><div class="value">%s</div><div class="unit">%s</div></div>`+"\n",
		html.EscapeString(label), html.EscapeString(value), html.EscapeString(unit))
}

// fmtMs renders a millisecond quantity at a human scale.
func fmtMs(ms float64) string {
	switch {
	case ms <= 0:
		return "–"
	case ms < 1000:
		return fmt.Sprintf("%.0fms", ms)
	default:
		return fmt.Sprintf("%.1fs", ms/1000)
	}
}

// thinLabels blanks all but every 4th column label so the heatmap axis
// stays readable at 24 columns.
func thinLabels(labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		if i%4 == 0 || i == len(labels)-1 {
			out[i] = l
		}
	}
	return out
}

// sortedSummaryKeys sorts a summary map's keys for deterministic pages.
func sortedSummaryKeys(m map[string]BucketSummary) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
