package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"agingfp/internal/obs"
)

// TestNoopZeroAllocs is the hot-path contract: with tracing disabled
// (nil tracer — the library default), spans, events, and metric lookups
// must not allocate, so the solver inner loops can stay instrumented
// unconditionally.
func TestNoopZeroAllocs(t *testing.T) {
	var tr *obs.Tracer
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start("core.remap", obs.String("mode", "rotate"), obs.Int64("seed", 1))
		probe := sp.Child("core.probe", obs.Float("st_target", 0.5))
		probe.Event("core.probe.round", obs.Int("round", 0), obs.Bool("ok", false))
		probe.End(obs.Bool("ok", true), obs.Duration("dt", time.Millisecond))
		sp.End()
		tr.Event("lp.warm_start", obs.Bool("hit", true), obs.Int("iters", 42))
		tr.Registry().Counter("agingfp_lp_solves_total").Add(1)
		tr.Registry().Gauge("agingfp_phase_seconds").Add(0.25)
		tr.Registry().Histogram("agingfp_probe_seconds").Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("no-op span path allocated %.1f times per run, want 0", allocs)
	}
}

// TestSinklessTracerZeroAllocSpans covers the metrics-only
// configuration: a live registry with no sinks must still keep the
// span path allocation-free.
func TestSinklessTracerZeroAllocSpans(t *testing.T) {
	tr := obs.New().WithMetrics(obs.NewRegistry())
	ctr := tr.Registry().Counter("c")
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start("span", obs.Int("i", 3))
		sp.Child("child").End()
		sp.End(obs.Bool("ok", true))
		ctr.Inc()
	})
	if allocs != 0 {
		t.Fatalf("sinkless span path allocated %.1f times per run, want 0", allocs)
	}
	if got := ctr.Value(); got != 201 {
		// AllocsPerRun executes one warm-up run plus the measured runs.
		t.Fatalf("counter = %d, want 201", got)
	}
}

type jsonlLine struct {
	Name    string                 `json:"name"`
	ID      uint64                 `json:"id"`
	Parent  uint64                 `json:"parent"`
	StartUS int64                  `json:"start_us"`
	DurUS   int64                  `json:"dur_us"`
	Instant bool                   `json:"instant"`
	Attrs   map[string]interface{} `json:"attrs"`
}

// TestJSONLRoundTrip drives a nested span tree through the JSONL sink
// and verifies every line parses, IDs are unique, parents resolve, and
// children nest inside their parent's interval.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	tr := obs.New(sink)

	root := tr.Start("root", obs.String("mode", "rotate \"quoted\" <&>\n"))
	probe := root.Child("probe", obs.Float("st", 0.5))
	dive := probe.Child("dive")
	dive.Event("backjump", obs.Int("depth", 3))
	time.Sleep(2 * time.Millisecond)
	dive.End(obs.Int("pins", 7))
	probe.End(obs.Bool("ok", true), obs.Float("gap", math.NaN()))
	root.End()
	tr.Event("loose", obs.Duration("dt", 1500*time.Millisecond))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), buf.String())
	}
	byID := map[uint64]jsonlLine{}
	byName := map[string]jsonlLine{}
	for _, ln := range lines {
		var ev jsonlLine
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %q does not parse: %v", ln, err)
		}
		if _, dup := byID[ev.ID]; dup {
			t.Fatalf("duplicate id %d", ev.ID)
		}
		byID[ev.ID] = ev
		byName[ev.Name] = ev
	}
	// Parents resolve and children nest within the parent's interval.
	for _, ev := range byID {
		if ev.Parent == 0 {
			continue
		}
		p, ok := byID[ev.Parent]
		if !ok {
			t.Fatalf("%s: parent %d not in trace", ev.Name, ev.Parent)
		}
		if ev.StartUS < p.StartUS {
			t.Errorf("%s starts before parent %s", ev.Name, p.Name)
		}
		if end, pend := ev.StartUS+ev.DurUS, p.StartUS+p.DurUS; end > pend {
			t.Errorf("%s ends at %d, after parent %s at %d", ev.Name, end, p.Name, pend)
		}
	}
	if got := byName["probe"].Parent; got != byName["root"].ID {
		t.Errorf("probe parent = %d, want root id %d", got, byName["root"].ID)
	}
	if got := byName["backjump"]; !got.Instant || got.Parent != byName["dive"].ID {
		t.Errorf("backjump = %+v, want instant child of dive", got)
	}
	if byName["dive"].DurUS < 2000 {
		t.Errorf("dive duration %dus, want >= slept 2000us", byName["dive"].DurUS)
	}
	// Attr round-trips: start attrs and End attrs merge on one event.
	if got := byName["root"].Attrs["mode"]; got != "rotate \"quoted\" <&>\n" {
		t.Errorf("root mode attr = %q", got)
	}
	if got := byName["dive"].Attrs["pins"]; got != float64(7) {
		t.Errorf("dive pins attr = %v", got)
	}
	if got := byName["probe"].Attrs; got["st"] != 0.5 || got["ok"] != true {
		t.Errorf("probe attrs = %v", got)
	}
	if gap, ok := byName["probe"].Attrs["gap"]; !ok || gap != nil {
		t.Errorf("NaN attr = %v (present %v), want null", gap, ok)
	}
	if got := byName["loose"].Attrs["dt"]; got != 1.5 {
		t.Errorf("duration attr = %v, want 1.5 (seconds)", got)
	}
}

// TestTracerConcurrency exercises two goroutines tracing into one
// tracer (the RemapBoth shape) under -race.
func TestTracerConcurrency(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf)).WithMetrics(obs.NewRegistry())
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				sp := tr.Start("arm", obs.Int("g", g))
				sp.Child("work", obs.Int("i", i)).End()
				sp.End()
				tr.Registry().Counter("n").Inc()
			}
		}(g)
	}
	<-done
	<-done
	if got := tr.Registry().Counter("n").Value(); got != 400 {
		t.Fatalf("counter = %d, want 400", got)
	}
}
