package serve_test

// Tenant accounting, per-job cost attribution, and the SLO endpoint —
// the multi-tenant observability surface, driven end-to-end over HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"agingfp/internal/serve"
	"agingfp/internal/slo"
	"agingfp/internal/telemetry"
)

// postJobAs submits a raw body under an explicit X-Tenant header and
// returns the snapshot, status code, and response headers.
func postJobAs(t *testing.T, hs *httptest.Server, tenant, body string) (serve.Snapshot, int, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return snap, resp.StatusCode, resp.Header
}

// TestTenantEchoValidationAndCost covers the identity plumbing on one
// job's round trip: the X-Tenant header rides into the snapshot and
// response headers, absence defaults to "anon", garbage is a 400, and
// every terminal job carries a cost block whose tier matches how the
// answer was produced.
func TestTenantEchoValidationAndCost(t *testing.T) {
	p := openPipeline(t, telemetry.Config{Dir: t.TempDir()})
	_, hs, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p})

	snap, code, _ := postJobAs(t, hs, "team-a", `{"bench": "B1", "seed": 71}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if snap.Tenant != "team-a" {
		t.Fatalf("snapshot tenant = %q, want team-a", snap.Tenant)
	}
	final := waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)
	if final.Tenant != "team-a" {
		t.Fatalf("final snapshot tenant = %q, want team-a", final.Tenant)
	}
	if final.Cost == nil {
		t.Fatal("terminal job lacks a cost block")
	}
	if final.Cost.Tier != "cold" || final.Cost.SolveMs <= 0 {
		t.Fatalf("cold cost = tier %q solve %gms, want cold/>0", final.Cost.Tier, final.Cost.SolveMs)
	}
	if final.Cost.SimplexIters <= 0 || final.Cost.LPSolves <= 0 {
		t.Fatalf("cold cost lacks solver effort: %+v", final.Cost)
	}

	// The status GET echoes the tenant as a response header alongside
	// the trace id.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get("X-Tenant"); got != "team-a" {
		t.Fatalf("status response X-Tenant = %q, want team-a", got)
	}

	// Same bytes, different tenant: served from cache (tenant is
	// delivery metadata, not solve identity), with a zero-cost hit tier.
	hit, code, _ := postJobAs(t, hs, "team-b", `{"bench": "B1", "seed": 71}`)
	if code != http.StatusAccepted || hit.State != serve.StateDone {
		t.Fatalf("cross-tenant resubmit: HTTP %d state %q, want a cache hit", code, hit.State)
	}
	if hit.Tenant != "team-b" {
		t.Fatalf("hit tenant = %q, want team-b", hit.Tenant)
	}
	if hit.Cost == nil || hit.Cost.Tier != "exact_hit" || hit.Cost.SolveMs != 0 {
		t.Fatalf("cache-hit cost = %+v, want tier exact_hit with zero solve time", hit.Cost)
	}

	// No header: accounted as anon.
	anon, _ := postJob(t, hs, `{"bench": "B1", "seed": 71}`)
	if anon.Tenant != serve.DefaultTenant {
		t.Fatalf("anonymous tenant = %q, want %q", anon.Tenant, serve.DefaultTenant)
	}

	// Identity charset is bounded: spaces are a validation error.
	if _, code, _ := postJobAs(t, hs, "bad tenant!", `{"bench": "B1"}`); code != http.StatusBadRequest {
		t.Fatalf("invalid tenant: HTTP %d, want 400", code)
	}

	// The per-tenant stats view exists and counted team-a's solve.
	var tw telemetry.TenantWindow
	if code := getJSON(t, hs.URL+"/v1/stats?tenant=team-a", &tw); code != http.StatusOK {
		t.Fatalf("/v1/stats?tenant=: HTTP %d", code)
	}
	if tw.Tenant != "team-a" || tw.Summary.Jobs != 1 || tw.Summary.Solved != 1 {
		t.Fatalf("team-a window = %+v, want 1 job / 1 solved", tw)
	}
}

// TestSLOEndToEnd wires the engine the way agingfloord does — as a
// telemetry observer — and checks the full loop: real traffic lands in
// /v1/slo with a healthy budget, the dash renders the panel, and a
// synthetic failure burst flips both windows of the fast and slow
// burn-rate pairs with the objective named in the alert log.
func TestSLOEndToEnd(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	engine := slo.New([]slo.Objective{slo.Availability(0.99)}, slo.Config{Logger: logger})
	p := openPipeline(t, telemetry.Config{
		Dir:       t.TempDir(),
		Observers: []func(*telemetry.SolveEvent){engine.Record},
	})
	_, hs, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p, SLO: engine})

	snap, _ := postJob(t, hs, `{"bench": "B1", "seed": 81}`)
	waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)
	if hit, _ := postJob(t, hs, `{"bench": "B1", "seed": 81}`); hit.State != serve.StateDone {
		t.Fatalf("resubmit not a cache hit: %q", hit.State)
	}

	cl := testClient(hs)
	st, err := cl.SLO(context.Background(), "")
	if err != nil {
		t.Fatalf("SLO: %v", err)
	}
	if len(st.Objectives) != 1 || st.Objectives[0].Name != "availability" {
		t.Fatalf("objectives = %+v, want one availability objective", st.Objectives)
	}
	avail := st.Objectives[0]
	// Both the solve and the cache hit are availability-eligible.
	if avail.Eligible < 2 || avail.Good != avail.Eligible {
		t.Fatalf("eligible/good = %d/%d, want >=2 all-good", avail.Eligible, avail.Good)
	}
	if avail.SLI != 1 || avail.ErrorBudgetRemaining != 1 || avail.Alerting {
		t.Fatalf("healthy status = SLI %v budget %v alerting %v, want 1/1/false",
			avail.SLI, avail.ErrorBudgetRemaining, avail.Alerting)
	}

	// Window parameter parses; garbage is a 400.
	if _, err := cl.SLO(context.Background(), "30m"); err != nil {
		t.Fatalf("SLO windowed: %v", err)
	}
	if code := getJSON(t, hs.URL+"/v1/slo?window=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad window: HTTP %d, want 400", code)
	}

	// The dash grows an SLO panel when the engine is wired.
	resp, err := http.Get(hs.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	dash, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(dash), "Service-level objectives") {
		t.Fatalf("dash lacks the SLO panel:\n%.400s", dash)
	}

	// Failure burst through the pipeline (the production event path):
	// enough budget burn to trip both windows of both pairs.
	for i := 0; i < 25; i++ {
		p.Record(&telemetry.SolveEvent{
			Time: time.Now(), Source: telemetry.SourceServe,
			JobID: fmt.Sprintf("burst-%03d", i), Bench: "B1",
			Status: "failed", ElapsedMs: 50, Error: "synthetic",
		})
	}
	st, err = cl.SLO(context.Background(), "")
	if err != nil {
		t.Fatalf("SLO after burst: %v", err)
	}
	avail = st.Objectives[0]
	if !avail.FastAlert || !avail.SlowAlert || !avail.Alerting {
		t.Fatalf("post-burst alerts fast/slow = %v/%v, want both firing", avail.FastAlert, avail.SlowAlert)
	}
	if avail.ErrorBudgetRemaining >= 1 {
		t.Fatalf("post-burst budget = %v, want burned", avail.ErrorBudgetRemaining)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "SLO burn-rate alert") || !strings.Contains(logs, "slo=availability") {
		t.Fatalf("alert log missing the objective name:\n%s", logs)
	}
}

func TestSLOWithoutEngine404s(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	if code := getJSON(t, hs.URL+"/v1/slo", nil); code != http.StatusNotFound {
		t.Fatalf("/v1/slo without engine: HTTP %d, want 404", code)
	}
}

// TestTenantCardinalityCapMetrics proves the label-set bound: tenants
// are client-controlled strings, so past telemetry.DefaultTenantCap they
// roll up into "other" and /metrics never grows more than cap+1 tenant
// labels.
func TestTenantCardinalityCapMetrics(t *testing.T) {
	p := openPipeline(t, telemetry.Config{Dir: t.TempDir()})
	_, hs, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p})

	// One cold solve, then the same bytes under a parade of identities —
	// cheap cache hits, each minted under a fresh tenant, two past the cap.
	first, code, _ := postJobAs(t, hs, "t1", `{"bench": "B1", "seed": 91}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, hs, first.ID, serve.StateDone, 30*time.Second)
	for i := 2; i <= telemetry.DefaultTenantCap+2; i++ {
		tenant := fmt.Sprintf("t%d", i)
		hit, code, _ := postJobAs(t, hs, tenant, `{"bench": "B1", "seed": 91}`)
		if code != http.StatusAccepted || hit.State != serve.StateDone {
			t.Fatalf("hit under %s: HTTP %d state %q", tenant, code, hit.State)
		}
		// The raw identity still rides the job snapshot even when the
		// metrics label rolled up.
		if hit.Tenant != tenant {
			t.Fatalf("snapshot tenant = %q, want %q", hit.Tenant, tenant)
		}
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	labels := map[string]bool{}
	for _, m := range regexp.MustCompile(`agingfp_tenant_[a-z_]+{[^}]*tenant="([^"]+)"`).FindAllStringSubmatch(string(metrics), -1) {
		labels[m[1]] = true
	}
	if len(labels) == 0 {
		t.Fatal("no tenant-labeled metrics exported")
	}
	if !labels[telemetry.TenantOther] {
		t.Fatalf("rollup label missing; exported tenants: %v", labels)
	}
	if len(labels) > telemetry.DefaultTenantCap+1 {
		t.Fatalf("tenant label cardinality = %d (%v), want <= cap+1 = %d", len(labels), labels, telemetry.DefaultTenantCap+1)
	}

	// The windowed stats view is bounded the same way: the over-cap
	// tenants' jobs are accounted under "other", not under their names,
	// and it exports exactly the label set /metrics does.
	var st telemetry.WindowStats
	if code := getJSON(t, hs.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("/v1/stats: HTTP %d", code)
	}
	if st.Tenants[telemetry.TenantOther].Jobs < 2 {
		t.Fatalf("rollup bucket jobs = %d, want the over-cap tenants' traffic", st.Tenants[telemetry.TenantOther].Jobs)
	}
	statsLabels := map[string]bool{}
	for tenant := range st.Tenants {
		statsLabels[tenant] = true
	}
	if !reflect.DeepEqual(statsLabels, labels) {
		t.Fatalf("/v1/stats tenants %v differ from /metrics tenants %v", statsLabels, labels)
	}
}

// TestMixedTenantAccountingExact runs concurrent cold solves under
// three tenants and checks the books balance exactly: per-tenant job
// counts and solver-effort sums must add up to the aggregate (sketch
// sums are exact, so this is equality, not approximation).
func TestMixedTenantAccountingExact(t *testing.T) {
	p := openPipeline(t, telemetry.Config{Dir: t.TempDir()})
	_, hs, _ := testServer(t, serve.Config{Workers: 2, Telemetry: p})

	tenants := []string{"team-a", "team-b", "team-c"}
	const jobsPer = 2
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*jobsPer)
	for ti, tenant := range tenants {
		for j := 0; j < jobsPer; j++ {
			wg.Add(1)
			go func(tenant string, seed int64) {
				defer wg.Done()
				cl := testClient(hs)
				cl.Tenant = tenant
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				snap, err := cl.Submit(ctx, &serve.JobRequest{Bench: "B1", Seed: seed})
				if err != nil {
					errs <- err
					return
				}
				final, err := cl.Wait(ctx, snap.ID)
				if err != nil {
					errs <- err
					return
				}
				if final.State != serve.StateDone {
					errs <- fmt.Errorf("job %s under %s: state %q (%s)", snap.ID, tenant, final.State, final.Error)
				}
			}(tenant, int64(100+ti*jobsPer+j)) // distinct seeds: every solve is cold
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var st telemetry.WindowStats
	if code := getJSON(t, hs.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("/v1/stats: HTTP %d", code)
	}
	if st.Jobs != int64(len(tenants)*jobsPer) {
		t.Fatalf("aggregate jobs = %d, want %d", st.Jobs, len(tenants)*jobsPer)
	}
	var jobs int64
	var iters, solveMs float64
	for _, tenant := range tenants {
		b, ok := st.Tenants[tenant]
		if !ok {
			t.Fatalf("stats missing tenant %s: %v", tenant, st.Tenants)
		}
		if b.Jobs != jobsPer || b.Solved != jobsPer {
			t.Fatalf("%s jobs/solved = %d/%d, want %d/%d", tenant, b.Jobs, b.Solved, jobsPer, jobsPer)
		}
		jobs += b.Jobs
		iters += b.SimplexItersTotal
		solveMs += b.SolveMsTotal
	}
	if jobs != st.Jobs {
		t.Fatalf("per-tenant job sum = %d, aggregate %d", jobs, st.Jobs)
	}
	if iters <= 0 || math.Abs(iters-st.Total.SimplexItersTotal) > 1e-6 {
		t.Fatalf("per-tenant simplex-iteration sum = %v, aggregate %v", iters, st.Total.SimplexItersTotal)
	}
	if solveMs <= 0 || math.Abs(solveMs-st.Total.SolveMsTotal) > 1e-6 {
		t.Fatalf("per-tenant solve-time sum = %v, aggregate %v", solveMs, st.Total.SolveMsTotal)
	}
}

// tenantJobs reads the per-tenant job counts a server exports: from
// /metrics (agingfp_tenant_jobs_total summed over statuses) and from
// /v1/stats.
func tenantJobs(t *testing.T, hs *httptest.Server) (metrics, stats map[string]int64) {
	t.Helper()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics = map[string]int64{}
	for _, m := range regexp.MustCompile(`agingfp_tenant_jobs_total{tenant="([^"]+)",status="[a-z]+"} (\d+)`).FindAllStringSubmatch(string(body), -1) {
		var n int64
		fmt.Sscan(m[2], &n)
		metrics[m[1]] += n
	}
	var st telemetry.WindowStats
	if code := getJSON(t, hs.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("/v1/stats: HTTP %d", code)
	}
	stats = map[string]int64{}
	for tenant, b := range st.Tenants {
		stats[tenant] = b.Jobs
	}
	return metrics, stats
}

// TestTenantSetSurvivesRestart: one tracker decides every tenant label,
// the one the store's replay fills. A store that admitted
// DefaultTenantCap tenants is reopened under a new server, and a job
// from a new tenant rolls into "other" on /metrics just as on /v1/stats,
// so both name the same tenants before and after the reopen.
func TestTenantSetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	p := openPipeline(t, telemetry.Config{Dir: dir})
	s, hs, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p})
	const body = `{"bench": "B1", "seed": 93}`
	// One cold solve, then cache hits, each under a tenant of its own.
	for i := 1; i <= telemetry.DefaultTenantCap; i++ {
		snap, code, _ := postJobAs(t, hs, fmt.Sprintf("t%d", i), body)
		if code != http.StatusAccepted {
			t.Fatalf("submit as t%d: HTTP %d", i, code)
		}
		waitState(t, hs, snap.ID, serve.StateDone, 30*time.Second)
	}
	metrics, before := tenantJobs(t, hs)
	if len(before) != telemetry.DefaultTenantCap || !reflect.DeepEqual(metrics, before) {
		t.Fatalf("before the reopen: /metrics tenants %v, /v1/stats tenants %v; want the same %d",
			metrics, before, telemetry.DefaultTenantCap)
	}

	hs.Close()
	s.Drain()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := openPipeline(t, telemetry.Config{Dir: dir})
	_, hs2, _ := testServer(t, serve.Config{Workers: 1, Telemetry: p2})
	fresh, code, _ := postJobAs(t, hs2, "fresh", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit as fresh: HTTP %d", code)
	}
	waitState(t, hs2, fresh.ID, serve.StateDone, 30*time.Second)
	metrics, after := tenantJobs(t, hs2)
	if want := map[string]int64{telemetry.TenantOther: 1}; !reflect.DeepEqual(metrics, want) {
		t.Fatalf("after the reopen /metrics tenants %v, want %v", metrics, want)
	}
	want := map[string]int64{telemetry.TenantOther: 1}
	for tenant, n := range before {
		want[tenant] = n
	}
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("after the reopen /v1/stats tenants %v, want %v", after, want)
	}
}
