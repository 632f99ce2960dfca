package serve_test

import (
	"agingfp/internal/serve"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/flight"
)

// TestReportEndpoint is the end-to-end check for the flight-recorder
// surface: a solved job serves its report as JSON, text, and raw
// journal; bad formats 400; unknown jobs 404; and the report survives a
// drain (the journal belongs to the job record, not the worker).
func TestReportEndpoint(t *testing.T) {
	s, hs, _ := testServer(t, serve.Config{Workers: 1})

	snap, code := postJob(t, hs, `{"bench": "B1", "seed": 21}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)

	var rep flight.Report
	if code := getJSON(t, hs.URL+"/v1/jobs/"+snap.ID+"/report", &rep); code != http.StatusOK {
		t.Fatalf("report: HTTP %d", code)
	}
	if rep.Schema != flight.ReportSchema {
		t.Fatalf("report schema %q, want %q", rep.Schema, flight.ReportSchema)
	}
	if rep.Summary.RelaxIterations < 1 {
		t.Fatalf("report shows %d relax iterations, want >= 1", rep.Summary.RelaxIterations)
	}

	get := func(url string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), b
	}

	code, ctype, body := get(hs.URL + "/v1/jobs/" + snap.ID + "/report?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), "flight report") {
		t.Fatalf("text report: HTTP %d, content-type %q, body %q", code, ctype, body)
	}

	code, _, body = get(hs.URL + "/v1/jobs/" + snap.ID + "/report?format=journal")
	if code != http.StatusOK {
		t.Fatalf("journal: HTTP %d", code)
	}
	j, err := flight.ReadJournal(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("journal does not round-trip: %v", err)
	}
	if len(j.Events) == 0 {
		t.Fatal("journal has no events")
	}

	if code, _, _ := get(hs.URL + "/v1/jobs/" + snap.ID + "/report?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus format: HTTP %d, want 400", code)
	}
	if code, _, _ := get(hs.URL + "/v1/jobs/job-999999/report"); code != http.StatusNotFound {
		t.Fatalf("unknown job report: HTTP %d, want 404", code)
	}

	// A cache hit never ran a solve, so it has no journal: 404, not an
	// empty report.
	hit, code := postJob(t, hs, `{"seed": 21, "bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	if hit.State != serve.StateDone {
		t.Fatalf("expected instant cache hit, state %q", hit.State)
	}
	if code, _, _ := get(hs.URL + "/v1/jobs/" + hit.ID + "/report"); code != http.StatusNotFound {
		t.Fatalf("cache-hit report: HTTP %d, want 404", code)
	}

	// Drain parks the workers; completed jobs keep serving their reports.
	s.Drain()
	if code, _, _ := get(hs.URL + "/v1/jobs/" + snap.ID + "/report"); code != http.StatusOK {
		t.Fatalf("report after drain: HTTP %d, want 200", code)
	}
}

// TestReportDisabled pins the opt-out: a negative FlightEvents bound
// attaches no recorder, and the endpoint 404s even for solved jobs.
func TestReportDisabled(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1, FlightEvents: -1})

	snap, code := postJob(t, hs, `{"bench": "B1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)
	if code := getJSON(t, hs.URL+"/v1/jobs/"+snap.ID+"/report", nil); code != http.StatusNotFound {
		t.Fatalf("report with recording disabled: HTTP %d, want 404", code)
	}
}

// TestDeltaKernelProfile: on a KernelProfile server a delta job's
// recorder is armed like a cold job's, so its journal has a kernel
// section and its cost block per-phase times.
func TestDeltaKernelProfile(t *testing.T) {
	s, _, _ := testServer(t, serve.Config{Workers: 1, KernelProfile: true})
	doc := designDoc(t, "kernel-delta", 24, 4, 4, 4, 9)
	base, err := s.Submit(&serve.JobRequest{Design: doc, Mode: "freeze"})
	if err != nil {
		t.Fatal(err)
	}
	// An appended op keeps the delta seeded but retires the base's
	// floorplan as a shortcut, so the delta solves LPs.
	grown := copyDoc(t, doc)
	grown.Ops = append(grown.Ops, arch.DocOp{Kind: doc.Ops[0].Kind, Ctx: doc.Ops[0].Ctx})
	delete(grown.Mappings, "baseline") // the server places the new op
	for _, id := range []string{base.ID, ""} {
		if id == "" {
			delta, err := s.SubmitDelta(base.ID, &serve.DeltaRequest{Design: grown})
			if err != nil {
				t.Fatal(err)
			}
			id = delta.ID
		}
		snap := waitJob(t, s, id, time.Minute)
		if snap.State != serve.StateDone {
			t.Fatalf("%s job %s ended %s: %s", snap.SolveKind, id, snap.State, snap.Error)
		}
		j, err := s.FlightJournal(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Kernel == nil || len(snap.Cost.PhaseMs) == 0 {
			t.Fatalf("%s job %s: kernel section %v, cost phase_ms %v; want both", snap.SolveKind, id, j.Kernel != nil, snap.Cost.PhaseMs)
		}
	}
}

// waitJob polls the job in process until it is terminal.
func waitJob(t *testing.T, s *serve.Server, id string, timeout time.Duration) serve.Snapshot {
	t.Helper()
	for deadline := time.Now().Add(timeout); ; time.Sleep(5 * time.Millisecond) {
		snap, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != serve.StateQueued && snap.State != serve.StateRunning {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, snap.State, timeout)
		}
	}
}

// TestVersionEndpoint pins /v1/version: always 200, always a parseable
// build-identity document with at least the Go version populated.
func TestVersionEndpoint(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})

	resp, err := http.Get(hs.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version: HTTP %d", resp.StatusCode)
	}
	var v struct {
		GoVersion string `json:"go_version"`
		Module    string `json:"module"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" {
		t.Fatal("version document has no go_version")
	}
}
