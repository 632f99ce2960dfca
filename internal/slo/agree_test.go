package slo

import (
	"math/rand"
	"testing"
	"time"

	"agingfp/internal/telemetry"
)

// TestStatsAndSLOAgree feeds one event stream through a telemetry
// pipeline with the engine as its observer and checks that /v1/stats
// and the availability objective count the same events in every window
// both can answer: the non-canceled jobs are the eligible ones, and the
// failures are the eligible jobs that were not good. The stream puts
// events on cell boundaries (the oldest cell of each window included),
// one nanosecond before them, out of order, and past the rings' horizon
// after newer events took their slots.
func TestStatsAndSLOAgree(t *testing.T) {
	end := time.Date(2026, 3, 4, 10, 20, 0, 0, time.UTC) // on a cell boundary
	now := end
	clock := func() time.Time { return now }
	e := New([]Objective{Availability(0.99)}, Config{Now: clock})
	p, err := telemetry.Open(telemetry.Config{
		Dir:       t.TempDir(),
		Now:       clock,
		Observers: []func(*telemetry.SolveEvent){e.Record},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	windows := []time.Duration{5 * time.Minute, 15 * time.Minute, time.Hour, 3 * time.Hour}
	rng := rand.New(rand.NewSource(7))
	times := []time.Time{end, end}
	for _, w := range windows {
		times = append(times, end.Add(-w), end.Add(-w-time.Nanosecond), end.Add(-w+time.Minute-time.Nanosecond))
	}
	for i := 0; i < 600; i++ {
		times = append(times, end.Add(-time.Duration(rng.Int63n(int64(4*time.Hour)))))
	}
	rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
	// Older than their slot by the time they arrive: both rings drop or
	// keep them by one rule, outside every window checked.
	for i := 0; i < 40; i++ {
		times = append(times, end.Add(-3*time.Hour-time.Duration(rng.Int63n(int64(4*time.Hour)))))
	}
	statuses := []string{"done", "done", "done", "failed", "canceled"}
	for _, at := range times {
		ev := &telemetry.SolveEvent{
			Time:      at,
			Source:    telemetry.SourceServe,
			Ops:       20 + rng.Intn(100),
			Contexts:  2 + rng.Intn(12),
			Status:    statuses[rng.Intn(len(statuses))],
			ElapsedMs: rng.ExpFloat64() * 50,
		}
		if ev.Status == "done" && rng.Intn(4) == 0 {
			ev.CacheHit, ev.SolveKind = true, "exact_hit"
		}
		p.Record(ev)
	}

	// On a cell boundary and between two.
	for _, at := range []time.Time{end, end.Add(37 * time.Second)} {
		now = at
		for _, w := range windows {
			st := p.Stats(w)
			avail := e.Status(w).Objectives[0]
			if st.Jobs == 0 {
				t.Fatalf("now %v, window %v: no jobs", at, w)
			}
			if got := st.Jobs - st.Total.Canceled; got != avail.Eligible {
				t.Errorf("now %v, window %v: stats counts %d non-canceled jobs, availability %d eligible",
					at.Format("15:04:05"), w, got, avail.Eligible)
			}
			if got := avail.Eligible - avail.Good; st.Total.Failures != got {
				t.Errorf("now %v, window %v: stats counts %d failures, availability %d bad",
					at.Format("15:04:05"), w, st.Total.Failures, got)
			}
		}
	}
}
