package slo

import (
	"fmt"
	"html"
	"strings"

	"agingfp/internal/viz"
)

// PanelHTML renders one Status as an HTML fragment for the operator
// dashboard (/debug/dash). The telemetry dashboard cannot import this
// package (slo already imports telemetry), so serve passes the fragment
// through telemetry.Dashboard's extra parameter instead.
func PanelHTML(st *Status) string {
	var b strings.Builder
	b.WriteString(`<h2>Service-level objectives</h2>`)
	if st == nil || len(st.Objectives) == 0 {
		b.WriteString(`<div class="note">No SLO engine configured.</div>`)
		return b.String()
	}
	fmt.Fprintf(&b, `<div class="note">window %s &middot; burn rate 1.0 = budget exhausts exactly over the window</div>`,
		html.EscapeString(st.Window))

	// Budget bars: one bar per objective, floored at 0 so an overspent
	// budget renders as an empty bar (the table below carries the sign).
	labels := make([]string, 0, len(st.Objectives))
	vals := make([]float64, 0, len(st.Objectives))
	for _, o := range st.Objectives {
		labels = append(labels, o.Name)
		rem := o.ErrorBudgetRemaining * 100
		if rem < 0 {
			rem = 0
		}
		vals = append(vals, rem)
	}
	b.WriteString(`<div class="tile"><h3>Error budget remaining</h3>`)
	b.WriteString(viz.BarsSVG(labels, vals, "%"))
	b.WriteString(`</div>`)

	b.WriteString(`<table><thead><tr>` +
		`<th>objective</th><th>kind</th><th>target</th><th>SLI</th>` +
		`<th>eligible</th><th>budget left</th>` +
		`<th>burn 5m/1h</th><th>burn 30m/6h</th><th>alert</th>` +
		`</tr></thead><tbody>`)
	for _, o := range st.Objectives {
		alert := "ok"
		cls := "alert-ok"
		switch {
		case o.FastAlert && o.SlowAlert:
			alert, cls = "fast+slow", "alert-bad"
		case o.FastAlert:
			alert, cls = "fast", "alert-bad"
		case o.SlowAlert:
			alert, cls = "slow", "alert-bad"
		}
		fmt.Fprintf(&b,
			`<tr><td>%s</td><td>%s</td><td>%.4g</td><td>%.4g</td>`+
				`<td>%d</td><td>%.1f%%</td>`+
				`<td>%.2f / %.2f</td><td>%.2f / %.2f</td><td class="%s">%s</td></tr>`,
			html.EscapeString(o.Name), html.EscapeString(string(o.Kind)),
			o.Target, o.SLI,
			o.Eligible, o.ErrorBudgetRemaining*100,
			o.BurnRates["5m0s"], o.BurnRates["1h0m0s"],
			o.BurnRates["30m0s"], o.BurnRates["6h0m0s"],
			cls, alert)
	}
	b.WriteString(`</tbody></table>`)
	return b.String()
}
