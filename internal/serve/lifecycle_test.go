package serve_test

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"agingfp/internal/obs"
	"agingfp/internal/serve"
	"agingfp/internal/telemetry"
)

// terminalViews checks that every view of a finished job exists: its
// "job finished" log record, its wide event (seen by a pipeline
// observer and counted by /v1/stats under its tenant), its tenant
// counter, and served (the service's counter for its state).
func terminalViews(hs *httptest.Server, reg *obs.Registry, logs *syncBuffer, events *eventLog,
	snap serve.Snapshot, served int64) error {
	st := string(snap.State)
	logged := false
	for _, line := range logs.lines() {
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Errorf("bad log line %q: %v", line, err)
		}
		if rec["job_id"] == snap.ID && rec["msg"] == "job finished" {
			if rec["state"] != st || rec["solve_kind"] != snap.SolveKind {
				return fmt.Errorf("job %s finish record state %v solve_kind %v, want %s/%s",
					snap.ID, rec["state"], rec["solve_kind"], st, snap.SolveKind)
			}
			logged = true
		}
	}
	if !logged {
		return fmt.Errorf("job %s reads %s before its finish record", snap.ID, st)
	}
	if ev, ok := events.get(snap.ID); !ok || ev.Status != st || ev.SolveKind != snap.SolveKind {
		return fmt.Errorf("job %s reads %s before its wide event (have %v: %+v)", snap.ID, st, ok, ev)
	}
	resp, err := http.Get(hs.URL + "/v1/stats?tenant=" + snap.Tenant)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tw telemetry.TenantWindow
	if err := json.NewDecoder(resp.Body).Decode(&tw); err != nil {
		return err
	}
	if tw.Summary.Jobs != 1 {
		return fmt.Errorf("job %s reads %s while /v1/stats counts %d jobs for %s", snap.ID, st, tw.Summary.Jobs, snap.Tenant)
	}
	tenantJobs := obs.Labeled(obs.Labeled(`agingfp_tenant_jobs_total`, "tenant", snap.Tenant), "status", st)
	if got := reg.Counter(tenantJobs).Value(); got != 1 {
		return fmt.Errorf("job %s reads %s while %s = %d", snap.ID, st, tenantJobs, got)
	}
	total := `agingfp_serve_jobs_total{state="` + st + `"}`
	if got := reg.Counter(total).Value(); got != served {
		return fmt.Errorf("job %s reads %s while %s = %d, want %d", snap.ID, st, total, got, served)
	}
	return nil
}

// TestTerminalViewsBeforeState ends one job each way a job can end — a
// cold solve, an exact hit, a cancel while queued, and an expiry in the
// queue — and checks, at the first poll that reads each job's terminal
// state, that every other view of its ending already exists. Each job
// runs under its own tenant, so every count is exact. Run it repeatedly
// under -race.
func TestTerminalViewsBeforeState(t *testing.T) {
	var logs syncBuffer
	p, events := observedPipeline(t)
	s, hs, reg := testServer(t, serve.Config{
		Workers:   1,
		Telemetry: p,
		Logger:    slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	submit := func(tenant string, seed, deadlineMs int64) serve.Snapshot {
		t.Helper()
		snap, err := s.Submit(&serve.JobRequest{Bench: "B4", Mode: "freeze", Seed: seed, DeadlineMs: deadlineMs, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	// watch polls the job from its own goroutine and checks the views at
	// the first terminal read.
	watch := func(id string, served int64) <-chan error {
		out := make(chan error, 1)
		go func() {
			for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); {
				snap, err := s.Job(id)
				if err != nil {
					out <- err
					return
				}
				if snap.State != serve.StateQueued && snap.State != serve.StateRunning {
					if err := terminalViews(hs, reg, &logs, events, snap, served); err != nil {
						out <- err
						return
					}
					if snap.SolveKind != "exact_hit" && snap.State != serve.StateDone && !snap.Started.IsZero() {
						out <- fmt.Errorf("job %s ran before it ended %s; want it ended in the queue", id, snap.State)
						return
					}
					out <- nil
					return
				}
				runtime.Gosched()
			}
			out <- fmt.Errorf("job %s not terminal after 2m", id)
		}()
		return out
	}

	// One worker: the cold job runs while the other two wait behind it.
	// It solves for about 0.1 s (more under -race), so the 1 ms deadline
	// lapses in the queue, and the cancel reaches the second job there.
	cold := submit("t-cold", 91, 0)
	queued := submit("t-cancel", 92, 0)
	expired := submit("t-expire", 93, 1)
	done := []<-chan error{watch(cold.ID, 1), watch(queued.ID, 1), watch(expired.ID, 1)}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	for _, c := range done {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range map[string]serve.JobState{cold.ID: serve.StateDone, queued.ID: serve.StateCanceled, expired.ID: serve.StateFailed} {
		if snap, _ := s.Job(id); snap.State != want {
			t.Fatalf("job %s ended %s (%s), want %s", id, snap.State, snap.Error, want)
		}
	}
	if snap, _ := s.Job(expired.ID); !strings.Contains(snap.Error, "deadline") {
		t.Fatalf("expired job error %q", snap.Error)
	}

	// The exact hit ends inside Submit: its snapshot is already terminal,
	// and it counts in agingfp_serve_jobs_total beside the cold job.
	hit := submit("t-hit", 91, 0)
	if hit.State != serve.StateDone || hit.SolveKind != "exact_hit" {
		t.Fatalf("resubmission: state %s solve_kind %s, want an exact hit", hit.State, hit.SolveKind)
	}
	if err := terminalViews(hs, reg, &logs, events, hit, 2); err != nil {
		t.Fatal(err)
	}
}
