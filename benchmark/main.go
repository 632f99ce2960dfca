// Command benchmark is the repository's benchmark: it drives the
// floorplanner through its public functions and its HTTP service on
// named workloads, checks every answer with code that does not trust
// the solver, and reports end-to-end metrics (untraced runs) or
// per-layer metrics (traced runs). See README.md.
//
//	bash benchmark/run.sh --workload table1-small --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runDeadline bounds one run, so a hung job fails the run instead of
// stalling it.
const runDeadline = 170 * time.Second

var workloads = []string{"table1-small", "table1-large", "serve-mix"}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "screen-corpus":
			os.Exit(screenMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 0, "input seed (0: the exact Table-I instances)")
	seconds := fs.Float64("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	work := fs.String("work", ".bench_build", "directory for the service's telemetry, spans and build outputs")
	outFile := fs.String("out", "", "also append the result, with workload and seed, to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	heap := startHeapSampler()

	traced := *trace == 1
	var (
		out *outcome
		err error
	)
	switch *workload {
	case "table1-small", "table1-large":
		out, err = runTable(ctx, *workload, *seed, *seconds, traced, *work)
	case "serve-mix":
		out, err = runServeMix(ctx, *seed, *seconds, traced, *work)
	default:
		err = fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	liveHeap := heap.medianMB()
	defs := endToEnd
	if traced {
		defs = perLayer
	} else {
		out.metrics["live_heap_mb"] = liveHeap
	}
	res, err := buildResult(out, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	for i, b := range out.bad {
		if i == 20 {
			fmt.Printf("violation ... %d more\n", len(out.bad)-i)
			break
		}
		fmt.Printf("violation %s\n", b)
	}
	if out.tr != nil {
		out.tr.printSelfTimes()
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := out.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: write spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for _, d := range defs {
		fmt.Printf("%s %s %s %s\n", d.name, *workload, strconv.FormatFloat(res.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if *outFile != "" {
		if err := appendRecord(*outFile, record{Workload: *workload, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	fmt.Println(string(line))
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult keeps exactly the metrics in defs; a missing one is a bug
// in the benchmark, not a measurement.
func buildResult(out *outcome, defs []metricDef) (*result, error) {
	res := &result{
		Correct:   len(out.bad) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// heapSampler records the live heap (bytes reachable at the end of the
// latest GC cycle) every heapSampleEvery while the run works. Its
// median is the run's typical footprint: unlike the resident set or a
// maximum, which hinge on when the collector happens to run, it is set
// by what the program keeps.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, float64(v.Uint64())/(1<<20))
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// medianMB stops the sampler and returns the median live heap in MiB.
func (h *heapSampler) medianMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples)
}

// record is one run as the compare subcommand reads it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
