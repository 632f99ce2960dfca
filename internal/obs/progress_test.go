package obs_test

import (
	"sync"
	"testing"
	"time"

	"agingfp/internal/obs"
)

// TestReporterLatestValue checks the core latest-value contract: Update
// read-modify-writes the snapshot, Seq bumps by one per publish, and
// readers see whole snapshots.
func TestReporterLatestValue(t *testing.T) {
	r := obs.NewReporter()
	if p := r.Latest(); p.Seq != 0 || p.Phase != "" {
		t.Fatalf("fresh reporter snapshot = %+v, want zero", p)
	}
	r.Update(func(p *obs.Progress) { p.Phase = "step1"; p.STProbes = 1 })
	r.Update(func(p *obs.Progress) { p.LPSolves = 7 })
	p := r.Latest()
	if p.Seq != 2 {
		t.Fatalf("Seq = %d, want 2", p.Seq)
	}
	if p.Phase != "step1" || p.STProbes != 1 || p.LPSolves != 7 {
		t.Fatalf("fields not carried across updates: %+v", p)
	}
	if p.UpdatedUnixMicro == 0 {
		t.Fatal("UpdatedUnixMicro not stamped")
	}
}

// TestReporterTerminalIdempotent pins the terminal-state contract: once
// a Done snapshot is published, later updates — including a second,
// conflicting terminal publish — are dropped, and Seq stops advancing.
func TestReporterTerminalIdempotent(t *testing.T) {
	r := obs.NewReporter()
	r.Update(func(p *obs.Progress) { p.Phase = "probe"; p.STProbes = 3 })
	r.Update(func(p *obs.Progress) { p.Done = true; p.Status = "failed" })
	final := r.Latest()
	if !final.Done || final.Status != "failed" {
		t.Fatalf("terminal snapshot = %+v, want Done/failed", final)
	}

	r.Update(func(p *obs.Progress) { p.Done = true; p.Status = "done" })
	r.Update(func(p *obs.Progress) { p.LPSolves = 99 })
	got := r.Latest()
	if got.Status != "failed" {
		t.Fatalf("second terminal publish overwrote the first: Status = %q, want %q", got.Status, "failed")
	}
	if got.Seq != final.Seq {
		t.Fatalf("Seq advanced past terminal state: %d -> %d", final.Seq, got.Seq)
	}
	if got.LPSolves != final.LPSolves {
		t.Fatalf("non-terminal field mutated after terminal state: %+v", got)
	}
}

// TestReporterNilInert pins the nil contract: Update never calls its
// closure, Latest returns zero, Watch returns a nil (never-ready)
// channel.
func TestReporterNilInert(t *testing.T) {
	var r *obs.Reporter
	r.Update(func(p *obs.Progress) { t.Fatal("closure called on nil reporter") })
	if p := r.Latest(); p != (obs.Progress{}) {
		t.Fatalf("nil Latest = %+v, want zero", p)
	}
	p, ch := r.Watch()
	if p != (obs.Progress{}) || ch != nil {
		t.Fatalf("nil Watch = (%+v, %v), want (zero, nil)", p, ch)
	}
}

// TestReporterNilUpdateZeroAllocs keeps the disabled progress path free
// for solver inner loops: publishing to a nil reporter must not allocate.
func TestReporterNilUpdateZeroAllocs(t *testing.T) {
	var r *obs.Reporter
	n := testing.AllocsPerRun(100, func() {
		r.Update(func(p *obs.Progress) { p.LPSolves++ })
	})
	if n != 0 {
		t.Fatalf("nil reporter Update allocates %.1f per op, want 0", n)
	}
}

// TestReporterWatchWake checks that a watcher blocked on the notify
// channel wakes on the next update and observes it (directly or after a
// Seq re-check — spurious wakes are allowed, lost wakes are not).
func TestReporterWatchWake(t *testing.T) {
	r := obs.NewReporter()
	p, ch := r.Watch()
	if p.Seq != 0 {
		t.Fatalf("pre-update Watch Seq = %d", p.Seq)
	}
	go r.Update(func(p *obs.Progress) { p.Phase = "rotate" })
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher not woken by update")
	}
	if got := r.Latest(); got.Seq != 1 || got.Phase != "rotate" {
		t.Fatalf("post-wake snapshot = %+v", got)
	}
	// A second Watch after the wake must return a fresh channel that the
	// next update closes.
	_, ch2 := r.Watch()
	r.Update(func(p *obs.Progress) { p.Phase = "probe" })
	select {
	case <-ch2:
	case <-time.After(5 * time.Second):
		t.Fatal("second watcher not woken")
	}
}

// TestReporterConcurrent hammers the CAS loop from several writers and a
// watcher; with -race this is the memory-safety check, and the final Seq
// proves no update was dropped.
func TestReporterConcurrent(t *testing.T) {
	const writers, perWriter = 8, 200
	r := obs.NewReporter()
	done := make(chan struct{})
	go func() { // watcher: follow updates until the writers finish
		defer close(done)
		last := uint64(0)
		for {
			p, ch := r.Watch()
			if p.Seq > last {
				last = p.Seq
			}
			if p.LPSolves == writers*perWriter {
				return
			}
			<-ch
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Update(func(p *obs.Progress) { p.LPSolves++ })
			}
		}()
	}
	wg.Wait()
	p := r.Latest()
	if p.Seq != writers*perWriter || p.LPSolves != writers*perWriter {
		t.Fatalf("Seq=%d LPSolves=%d, want both %d", p.Seq, p.LPSolves, writers*perWriter)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("watcher never observed final count")
	}
}

// TestTracerFlush checks that Flush is nil-safe and reaches buffered
// sinks.
func TestTracerFlush(t *testing.T) {
	if err := (*obs.Tracer)(nil).Flush(); err != nil {
		t.Fatalf("nil tracer Flush: %v", err)
	}
	var buf lockedBuffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	tr.Event("unit.test")
	if buf.Len() != 0 {
		t.Fatal("JSONL sink flushed eagerly; expected buffering")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("Tracer.Flush did not reach the buffered sink")
	}
}

// lockedBuffer is a minimal concurrency-safe write buffer for sink tests.
type lockedBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b = append(l.b, p...)
	return len(p), nil
}

func (l *lockedBuffer) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.b)
}
