package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// specMetric is one end-to-end metric as BENCHMARK.json defines it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain implements `compare PARENT CHANGE`: each file holds the
// records (--out) of untraced runs of one commit. Runs pair up by
// workload and seed; the operator alternates which commit runs first.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	regressed := false
	fmt.Printf("%-18s %-13s %5s %4s  %-32s %-32s %s\n", "metric", "workload", "pairs", "wins",
		"parent median [q1, q3]", "change median [q1, q3]", "verdict")
	for _, row := range compareRuns(spec.EndToEnd, parent, change) {
		fmt.Println(row)
		regressed = regressed || row.verdict == "regression"
	}
	if regressed {
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 && r.Result != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareRow is one (metric, workload) line of the comparison.
type compareRow struct {
	metric, workload string
	pairs, wins      int
	parent, change   [3]float64 // median, q1, q3
	verdict          string
}

func (r compareRow) String() string {
	side := func(v [3]float64) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", v[0], v[1], v[2]) }
	return fmt.Sprintf("%-18s %-13s %5d %4d  %-32s %-32s %s", r.metric, r.workload, r.pairs, r.wins,
		side(r.parent), side(r.change), r.verdict)
}

// compareRuns pairs parent and change runs by workload and seed and
// judges every end-to-end metric on every workload.
func compareRuns(metrics []specMetric, parent, change []record) []compareRow {
	type key struct {
		workload string
		seed     int64
	}
	byKey := map[key]*result{}
	for _, r := range parent {
		byKey[key{r.Workload, r.Seed}] = r.Result
	}
	pairs := map[string][][2]*result{}
	for _, c := range change {
		if p, ok := byKey[key{c.Workload, c.Seed}]; ok {
			pairs[c.Workload] = append(pairs[c.Workload], [2]*result{p, c.Result})
		}
	}
	var names []string
	for w := range pairs {
		names = append(names, w)
	}
	sort.Strings(names)
	var rows []compareRow
	for _, w := range names {
		for _, m := range metrics {
			var pv, cv []float64
			for _, pr := range pairs[w] {
				p, okP := pr[0].Metrics[m.Name]
				c, okC := pr[1].Metrics[m.Name]
				if okP && okC {
					pv, cv = append(pv, p.Value), append(cv, c.Value)
				}
			}
			row := compareRow{metric: m.Name, workload: w, pairs: len(pv)}
			higher := m.Better == "higher"
			row.wins = pairWins(pv, cv, higher)
			row.parent = summary(pv)
			row.change = summary(cv)
			if len(pv) < minPairs {
				row.verdict = fmt.Sprintf("needs %d pairs", minPairs)
			} else {
				row.verdict = verdict(pv, cv, higher, m.Bound)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func summary(v []float64) [3]float64 {
	q1, q3 := quartiles(v)
	return [3]float64{median(v), q1, q3}
}

// verdict applies the paired-run rule. A regression is a change median
// worse than the parent's by more than the bound. A gain needs the
// change to win at least nine tenths of the pairs and the medians to
// differ by more than the parent's interquartile distance. Otherwise,
// where the parent's spread exceeds the bound, the metric is unresolved
// unless every change run beats every parent run.
func verdict(parent, change []float64, higherBetter bool, bound float64) string {
	pm, cm := median(parent), median(change)
	worse := (cm - pm) / math.Abs(pm)
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "regression"
	}
	q1, q3 := quartiles(parent)
	wins := pairWins(parent, change, higherBetter)
	if worse < 0 && wins*10 >= 9*len(parent) && math.Abs(cm-pm) > q3-q1 {
		return "gain"
	}
	if spread(parent) > bound && !allBetter(parent, change, higherBetter) {
		return "unresolved"
	}
	return "no change"
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(parent, change []float64, higherBetter bool) bool {
	ps, cs := sorted(parent), sorted(change)
	if len(ps) == 0 || len(cs) == 0 {
		return false
	}
	if higherBetter {
		return cs[0] > ps[len(ps)-1]
	}
	return cs[len(cs)-1] < ps[0]
}
