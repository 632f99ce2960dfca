package obs

import (
	"sync/atomic"
	"time"
)

// Progress is a point-in-time snapshot of one job's solver progress: the
// progress member of the job server's snapshot and the CLI's -progress
// status line. Core stamps the phase, probe and batch fields; whoever
// owns the job's lifecycle (the job server, or nobody for library
// callers) stamps the terminal ones once. It is a value, so readers
// never see a half-written update.
type Progress struct {
	// Seq increases by one per published update; a reader that polls can
	// detect "no news" by comparing sequence numbers.
	Seq uint64 `json:"seq"`
	// Phase names the flow stage the job is in: "step1", "rotate",
	// "probe", "done".
	Phase string `json:"phase,omitempty"`

	// STTarget is the stress budget currently being probed (Step 1 binary
	// search or Step 2.3 relax-and-retry); STProbes and RelaxRounds count
	// Step-1 probes and Algorithm-1 outer iterations so far.
	STTarget    float64 `json:"st_target,omitempty"`
	STProbes    int     `json:"st_probes,omitempty"`
	RelaxRounds int     `json:"relax_rounds,omitempty"`
	// Batch/Batches locate the solve inside the current probe's context
	// batch sweep (1-based; 0 before the first batch).
	Batch   int `json:"batch,omitempty"`
	Batches int `json:"batches,omitempty"`
	// LPSolves/SimplexIters are cumulative solver effort — the monotone
	// "is it moving?" counters.
	LPSolves     int64 `json:"lp_solves,omitempty"`
	SimplexIters int64 `json:"simplex_iters,omitempty"`

	// Done marks the terminal update; Status carries the outcome
	// ("done", "failed", "canceled" for the job server; a solver status
	// string for library users).
	Done   bool   `json:"done,omitempty"`
	Status string `json:"status,omitempty"`

	// UpdatedUnixMicro is the publish time (microseconds since the Unix
	// epoch), stamped by Update.
	UpdatedUnixMicro int64 `json:"updated_us,omitempty"`
}

// Reporter is a lock-free latest-value progress cell: writers publish
// read-modify-write updates of a Progress snapshot, readers poll Latest
// or block on Watch. There are no queues and no history — an update
// simply replaces the snapshot — so an arbitrarily slow reader costs the
// solver nothing and sees the freshest state when it looks.
//
// A nil *Reporter is fully inert (Update is a no-op that never calls its
// closure, Latest returns the zero Progress), so the solver layers stay
// instrumented unconditionally, mirroring the nil-Tracer contract.
// Safe for concurrent use by any number of writers and readers.
type Reporter struct {
	cur    atomic.Pointer[Progress]
	notify atomic.Pointer[chan struct{}]
}

// NewReporter returns a reporter holding the zero snapshot.
func NewReporter() *Reporter {
	r := &Reporter{}
	r.cur.Store(&Progress{})
	return r
}

// Update publishes a new snapshot: f mutates a private copy of the
// latest one, then the copy is installed with a bumped Seq and a fresh
// timestamp. Concurrent updates linearize via compare-and-swap (f may
// run more than once under contention; it must be a pure function of its
// argument). On a nil reporter Update returns without calling f.
//
// A terminal snapshot (Done set) is final: once published, every later
// Update is dropped, so a job's first outcome — "failed", "canceled" —
// can't be overwritten by a racing late writer publishing "done".
func (r *Reporter) Update(f func(p *Progress)) {
	if r == nil {
		return
	}
	for {
		old := r.cur.Load()
		if old.Done {
			return
		}
		next := *old
		f(&next)
		next.Seq = old.Seq + 1
		next.UpdatedUnixMicro = time.Now().UnixMicro()
		if r.cur.CompareAndSwap(old, &next) {
			// Wake any watchers. Updates with nobody watching see a nil
			// swap and pay nothing beyond it.
			if ch := r.notify.Swap(nil); ch != nil {
				close(*ch)
			}
			return
		}
	}
}

// Latest returns the current snapshot (the zero Progress on a nil
// reporter).
func (r *Reporter) Latest() Progress {
	if r == nil {
		return Progress{}
	}
	return *r.cur.Load()
}

// Watch returns the current snapshot plus a channel that is closed at
// the next update: the blocking primitive behind the job server's wait.
// A wake may be spurious (an update racing the subscription closes the
// channel at once), so callers re-check Seq. On a nil reporter the
// channel is nil and never delivers.
func (r *Reporter) Watch() (Progress, <-chan struct{}) {
	if r == nil {
		return Progress{}, nil
	}
	for {
		if chp := r.notify.Load(); chp != nil {
			// Read the snapshot after the channel: if an update slipped in
			// between, it either shows in the snapshot or has closed the
			// channel — a spurious wake, never a lost one.
			return *r.cur.Load(), *chp
		}
		ch := make(chan struct{})
		if r.notify.CompareAndSwap(nil, &ch) {
			return *r.cur.Load(), ch
		}
	}
}
