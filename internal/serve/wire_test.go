package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/bench"
	"agingfp/internal/obs"
	"agingfp/internal/place"
	"agingfp/internal/serve"
)

// The wire documents as encoding/json sees them without the codec. A
// field added to a wire type must be added here too; wireTypesMatch
// checks that it was.
type (
	refDocument arch.Document
	refRequest  struct {
		Bench       string       `json:"bench,omitempty"`
		Design      *refDocument `json:"design,omitempty"`
		Mode        string       `json:"mode,omitempty"`
		Seed        int64        `json:"seed,omitempty"`
		TimeLimitMs int64        `json:"time_limit_ms,omitempty"`
		DeadlineMs  int64        `json:"deadline_ms,omitempty"`
		Tenant      string       `json:"tenant,omitempty"`
	}
	refDelta struct {
		Design      *refDocument `json:"design"`
		Mode        string       `json:"mode,omitempty"`
		Seed        int64        `json:"seed,omitempty"`
		TimeLimitMs int64        `json:"time_limit_ms,omitempty"`
		DeadlineMs  int64        `json:"deadline_ms,omitempty"`
		Tenant      string       `json:"tenant,omitempty"`
	}
	refResult   serve.JobResult
	refSnapshot serve.Snapshot
)

func (r *refRequest) wire() serve.JobRequest {
	return serve.JobRequest{Bench: r.Bench, Design: (*arch.Document)(r.Design), Mode: r.Mode, Seed: r.Seed,
		TimeLimitMs: r.TimeLimitMs, DeadlineMs: r.DeadlineMs, Tenant: r.Tenant}
}

func (r *refDelta) wire() serve.DeltaRequest {
	return serve.DeltaRequest{Design: (*arch.Document)(r.Design), Mode: r.Mode, Seed: r.Seed,
		TimeLimitMs: r.TimeLimitMs, DeadlineMs: r.DeadlineMs, Tenant: r.Tenant}
}

func TestWireTypesMatch(t *testing.T) {
	for _, p := range [][2]interface{}{{serve.JobRequest{}, refRequest{}}, {serve.DeltaRequest{}, refDelta{}}} {
		a, b := reflect.TypeOf(p[0]), reflect.TypeOf(p[1])
		if a.NumField() != b.NumField() {
			t.Fatalf("%v has %d fields, its reference %d", a, a.NumField(), b.NumField())
		}
		for i := 0; i < a.NumField(); i++ {
			if a.Field(i).Name != b.Field(i).Name || a.Field(i).Tag != b.Field(i).Tag {
				t.Fatalf("%v field %d is %s %q, its reference's %s %q", a, i,
					a.Field(i).Name, a.Field(i).Tag, b.Field(i).Name, b.Field(i).Tag)
			}
		}
	}
}

// variantDoc is Table-I shape's generator variant v (seed + 1000·v, as
// the serve-mix corpus numbers them) with its placed baseline, or none
// when placement fails.
func variantDoc(tb testing.TB, shape string, v int64) *arch.Document {
	tb.Helper()
	spec, ok := bench.SpecByName(shape)
	if !ok {
		tb.Fatalf("unknown shape %s", shape)
	}
	if v > 0 {
		spec.Seed += 1000 * v
		spec.Name = fmt.Sprintf("%s-v%d", shape, v)
	}
	d, err := bench.Synthesize(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var maps map[string]arch.Mapping
	if spec.Fabric.W <= 8 {
		if m0, err := place.Place(d, place.DefaultConfig()); err == nil {
			maps = map[string]arch.Mapping{"baseline": m0}
		}
	}
	return arch.ToDocument(d, maps)
}

// requestBody is the body the client sends for a design submission.
func requestBody(tb testing.TB, doc *arch.Document) []byte {
	tb.Helper()
	b, err := json.Marshal(&refRequest{Design: (*refDocument)(doc)})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzJobRequestJSON: for every input, the JobRequest, DeltaRequest and
// JobResult codecs and encoding/json accept and reject the same inputs
// and decode them to equal values, called directly (as the handlers
// and client do) or through json.Unmarshal; MarshalJSON writes
// encoding/json's bytes for every request that decodes.
func FuzzJobRequestJSON(f *testing.F) {
	for _, spec := range bench.TableI {
		f.Add(requestBody(f, variantDoc(f, spec.Name, 0)))
	}
	for _, shape := range []string{"B1", "B4", "B10", "B13", "B19"} {
		for v := int64(1); v <= 57; v++ {
			f.Add(requestBody(f, variantDoc(f, shape, v)))
		}
	}
	result, err := json.MarshalIndent(&refResult{Design: "B1", Ops: 3, Contexts: 2, Status: "optimal", Improved: true,
		STTarget: 0.348, STLower: 0.174, OrigMaxStress: 0.522, NewMaxStress: 0.348, OrigCPDNs: 1.23, NewCPDNs: 1e-7,
		MTTF:    serve.MTTFSummary{BeforeHours: 1e21, AfterHours: 2.5e21, Increase: 2.5},
		Stats:   serve.SolveStats{LPSolves: 4, SimplexIters: 99, STProbes: 2},
		Mapping: [][2]int{{0, 1}, {2, 3}, {1, 1}}}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(result)
	for _, s := range []string{
		`{"bench":"B1"}`,
		`{"bench":"B1","mode":"rotate","seed":1,"time_limit_ms":120000,"deadline_ms":5,"tenant":"t"}`,
		`{"Bench":"B1","SEED":3}`,
		`{"bench":"B1","bench":"B2"}`,
		`{"design":{"name":"a"},"design":{"fabric_w":3}}`,
		`{"design":null,"bench":null}`,
		`{"design":{"ops":[null]}}`,
		`{"seed":1.0}`,
		`{"seed":9223372036854775807}`,
		`{"seed":9223372036854775808}`,
		`{"seed":-9223372036854775808}`,
		`{"time_limit_ms":1e3}`,
		`{"bench":"B1"} x`,
		`{"bench":"B1"}{}`,
		`{"bench":"\xff"}`,
		`{"tenant":"<a&b>"}`,
		`{"design":5}`,
		`{"design":{"ops":[{"kind":1.5}]}}`,
		`{"status":"optimal","improved":1}`,
		`{"mttf":{"increase":2},"mttf":{"before_hours":1}}`,
		`{"mapping":[[1,2,3]],"stats":{"lp_solves":-0}}`,
		`{}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			wantReq             refRequest
			direct, nested      serve.JobRequest
			wantDelta           refDelta
			directD, nestedD    serve.DeltaRequest
			wantRes             refResult
			directRes, nestedRs serve.JobResult
		)
		same := func(what string, wantErr, directErr, nestedErr error, want, direct, nested interface{}) {
			t.Helper()
			if (wantErr == nil) != (directErr == nil) || (wantErr == nil) != (nestedErr == nil) {
				t.Fatalf("%s %q: encoding/json error %v, codec %v, codec via json.Unmarshal %v", what, data, wantErr, directErr, nestedErr)
			}
			if wantErr == nil && (!reflect.DeepEqual(want, direct) || !reflect.DeepEqual(direct, nested)) {
				t.Fatalf("%s %q: encoding/json decoded %+v, codec %+v, via json.Unmarshal %+v", what, data, want, direct, nested)
			}
		}
		reqErr := json.Unmarshal(data, &wantReq)
		same("JobRequest", reqErr, direct.UnmarshalJSON(data), json.Unmarshal(data, &nested), wantReq.wire(), direct, nested)
		deltaErr := json.Unmarshal(data, &wantDelta)
		same("DeltaRequest", deltaErr, directD.UnmarshalJSON(data), json.Unmarshal(data, &nestedD), wantDelta.wire(), directD, nestedD)
		resErr := json.Unmarshal(data, &wantRes)
		same("JobResult", resErr, directRes.UnmarshalJSON(data), json.Unmarshal(data, &nestedRs), serve.JobResult(wantRes), directRes, nestedRs)

		roundTrip := func(what string, ref interface{}, codec json.Marshaler) {
			t.Helper()
			want, wantErr := json.Marshal(ref)
			got, gotErr := codec.MarshalJSON()
			if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(want, got) {
				t.Fatalf("%s %q: encoding/json wrote %s (%v), MarshalJSON %s (%v)", what, data, want, wantErr, got, gotErr)
			}
		}
		if reqErr == nil {
			roundTrip("JobRequest", &wantReq, direct)
		}
		if deltaErr == nil {
			roundTrip("DeltaRequest", &wantDelta, directD)
		}
	})
}

// FuzzSnapshotJSON: for every input, the Snapshot codec and
// encoding/json accept and reject the same inputs and decode them to
// equal values, called directly (as the client does) or through
// json.Unmarshal. MarshalJSON writes encoding/json's bytes for a
// snapshot without a result, and for one with a result the same
// members followed by the result bytes as they are.
func FuzzSnapshotJSON(f *testing.F) {
	result, err := json.MarshalIndent(&refResult{Design: "B1", Ops: 3, Contexts: 2, Status: "optimal", Improved: true,
		STTarget: 0.348, MTTF: serve.MTTFSummary{Increase: 2.5}, Mapping: [][2]int{{0, 1}, {2, 3}}}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2026, 10, 19, 23, 39, 35, 28371982, time.UTC)
	cost := &serve.CostReport{Tier: "cold", QueueWaitMs: 0.25, SolveMs: 1234.5, LPSolves: 4, SimplexIters: 99, STProbes: 2,
		PhaseMs: map[string]float64{"pricing": 1.5, "ftran": 1e-7, "update": 3}}
	running := obs.Progress{Seq: 17, Phase: "probe", STTarget: 0.34812345678901234, STProbes: 3, RelaxRounds: 1,
		Batch: 2, Batches: 4, LPSolves: 12, SimplexIters: 3456, UpdatedUnixMicro: at.UnixMicro()}
	done := running
	done.Seq, done.Phase, done.Done, done.Status = 41, "done", true, "done"
	for _, snap := range []refSnapshot{
		{ID: "job-000001", TraceID: "ec9341e03d5ff240", Tenant: "anon", State: serve.StateQueued, SolveKind: "cold", Submitted: at},
		{ID: "job-000002", State: serve.StateRunning, SolveKind: "delta", BaseJob: "job-000001", Submitted: at, Started: at.Add(time.Millisecond),
			Progress: running},
		{ID: "job-000003", TraceID: "0123456789abcdef", Tenant: "team-a", State: serve.StateDone, SolveKind: "cold",
			Cost: cost, Submitted: at, Started: at, Finished: at.Add(time.Second), Progress: done, Result: result},
		{ID: "job-000004", State: serve.StateDone, SolveKind: "exact_hit", Cost: &serve.CostReport{Tier: "exact_hit"},
			Submitted: at, Started: at, Finished: at, Progress: obs.Progress{Seq: 1, Phase: "done", Done: true, Status: "done",
				UpdatedUnixMicro: at.UnixMicro()}, Result: result},
		{ID: "job-000005", State: serve.StateDone, SolveKind: "semantic_hit", Cost: &serve.CostReport{Tier: "semantic_hit"},
			Submitted: at, Started: at, Finished: at, Result: []byte(`{"design":"B1","mapping":[[0,1]]}`)},
		{ID: "job-000006", State: serve.StateDone, SolveKind: "delta", BaseJob: "job-000003",
			Reuse: &serve.ReuseInfo{FrozenReused: true, BasesSeeded: 3, BracketHit: true}, Cost: cost,
			Submitted: at, Started: at, Finished: at, Result: result},
		{ID: "job-000007", State: serve.StateDone, SolveKind: "delta", BaseJob: "job-000003", DeltaFallback: "shape changed",
			Reuse: &serve.ReuseInfo{}, Submitted: at, Started: at, Finished: at},
		{ID: "job-000008", State: serve.StateFailed, Error: "context deadline exceeded", SolveKind: "cold",
			Cost: &serve.CostReport{Tier: "cold", QueueWaitMs: 1.5}, Submitted: at, Finished: at.In(time.FixedZone("", 5*3600+1800))},
		{ID: "job-000009", State: serve.StateCanceled, Error: "context canceled", SolveKind: "cold", Submitted: at, Finished: at},
	} {
		b, err := json.Marshal(&snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if len(snap.Result) > 0 {
			// The server's bytes: the result as it is, indented.
			members := b[:bytes.LastIndex(b, []byte(`,"result":`))+len(`,"result":`)]
			f.Add(append(append(append([]byte(nil), members...), snap.Result...), '}'))
		}
	}
	for _, s := range []string{
		`{"id":"a","state":"done","result":null}`,
		`{"id":"a","result":{"x":[1,2.5e400,"\u00e9\n",true,false,null,{}]}}`,
		`{"id":"a","result":"\xff"}`,
		`{"id":"a","result":{"x":"\u12"}}`,
		`{"id":"a","result":[1,]}`,
		`{"id":"a","result":01}`,
		`{"id":"a","result":{"a" "b"}}`,
		`{"id":"a","result":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
		`{"id":"a","id":"b"}`,
		`{"ID":"a","State":"done"}`,
		`{"submitted":"2026-10-19T23:39:35Z","started":null,"finished":"2026-13-19T23:39:35Z"}`,
		`{"submitted":"2026-10-19T23:39:35+24:00"}`,
		`{"submitted":"2026-10-19t23:39:35z"}`,
		`{"submitted":5}`,
		`{"cost":{"phase_ms":{"a":1,"a":2}},"reuse":null}`,
		`{"cost":{"phase_ms":{}}}`,
		`{"cost":{"phase_ms":{"a":null}}}`,
		`{"cost":{"lp_solves":1.0}}`,
		`{"reuse":{"bases_seeded":9223372036854775807}}`,
		`{"state":"\u0064one"}`,
		`{"progress":{"seq":0,"st_target":1e-7,"done":null,"status":null}}`,
		`{"progress":{"seq":18446744073709551615,"st_target":2.5e400}}`,
		`{"progress":{"seq":-0}}`,
		`{"progress":{"seq":1.0,"lp_solves":-3}}`,
		`{"progress":{"seq":1,"seq":2}}`,
		`{"progress":{"Seq":3,"phase":"\u0070robe"}}`,
		`{"progress":{},"progress":{"seq":1}}`,
		`{"progress":null,"result":null}`,
		`{"progress":{"batch":9223372036854775807,"done":true}}`,
		`{}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			want           refSnapshot
			direct, nested serve.Snapshot
		)
		wantErr := json.Unmarshal(data, &want)
		directErr, nestedErr := direct.UnmarshalJSON(data), json.Unmarshal(data, &nested)
		if (wantErr == nil) != (directErr == nil) || (wantErr == nil) != (nestedErr == nil) {
			t.Fatalf("%q: encoding/json error %v, codec %v, codec via json.Unmarshal %v", data, wantErr, directErr, nestedErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(serve.Snapshot(want), direct) || !reflect.DeepEqual(direct, nested) {
			t.Fatalf("%q: encoding/json decoded %+v, codec %+v, via json.Unmarshal %+v", data, want, direct, nested)
		}
		members := want
		members.Result = nil
		wantOut, wantErr := json.Marshal(&members)
		if wantErr == nil && len(want.Result) > 0 {
			wantOut = append(append(append(wantOut[:len(wantOut)-1], `,"result":`...), want.Result...), '}')
		}
		got, gotErr := direct.MarshalJSON()
		if (wantErr == nil) != (gotErr == nil) || !bytes.Equal(wantOut, got) {
			t.Fatalf("%q: want %s (%v), MarshalJSON wrote %s (%v)", data, wantOut, wantErr, got, gotErr)
		}
	})
}

// TestSnapshotResultAliasesBody: a snapshot the server wrote is read on
// the plain path, which keeps the result as a sub-slice of the body
// instead of the copy encoding/json makes.
func TestSnapshotResultAliasesBody(t *testing.T) {
	result := []byte("{\n  \"design\": \"B1\",\n  \"mapping\": [\n    [\n      0,\n      1\n    ]\n  ]\n}")
	body, err := serve.Snapshot{ID: "job-000001", State: serve.StateDone, SolveKind: "exact_hit",
		Cost: &serve.CostReport{Tier: "exact_hit"}, Submitted: time.Now(),
		Progress: obs.Progress{Seq: 1, Phase: "done", STTarget: 0.25, Done: true, Status: "done"}, Result: result}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	if err := snap.UnmarshalJSON(body); err != nil || !bytes.Equal(snap.Result, result) {
		t.Fatalf("decoded %v, result %s", err, snap.Result)
	}
	if start := bytes.Index(body, result); start < 0 || &snap.Result[0] != &body[start] {
		t.Fatal("the result was copied: the snapshot was not read on the plain path")
	}
}

// TestRequestErrorText: a refused body gets encoding/json's own error
// text. The one difference is a type error inside an embedded design:
// encoding/json names the request, not the design's struct, as it does
// for any field whose type decodes itself.
func TestRequestErrorText(t *testing.T) {
	for in, want := range map[string]string{
		`{"seed":"4"}`:                      `json: cannot unmarshal string into Go struct field JobRequest.seed of type int64`,
		`5`:                                 `json: cannot unmarshal number into Go value of type serve.JobRequest`,
		`{"design":5}`:                      `json: cannot unmarshal number into Go struct field JobRequest.design of type arch.Document`,
		`{"bench":"B1"} x`:                  `invalid character 'x' after top-level value`,
		`{"design":{"ops":[{"kind":1.5}]}}`: `json: cannot unmarshal number 1.5 into Go struct field JobRequest.design.ops.kind of type int`,
	} {
		var req serve.JobRequest
		if err := req.UnmarshalJSON([]byte(in)); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", in, err, want)
		}
	}
}

// BenchmarkDecodeJobRequest decodes the submission bodies of two
// serve-mix corpus designs as handleSubmit does, against encoding/json
// decoding the same body without the codec.
func BenchmarkDecodeJobRequest(b *testing.B) {
	for _, c := range []struct {
		shape string
		v     int64
	}{{"B1", 1}, {"B19", 7}} {
		body := requestBody(b, variantDoc(b, c.shape, c.v))
		name := fmt.Sprintf("%s-v%d", c.shape, c.v)
		b.Run(name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req serve.JobRequest
				if err := req.UnmarshalJSON(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req refRequest
				if err := json.Unmarshal(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// exactHitAllocs bounds the allocations of one exact hit served by
// Handler, body read to response written: it decodes the request once,
// hashes it and writes the snapshot, result bytes included, with the
// snapshot codec. With Go 1.24 the B19-v7 hit makes 132 (158 before the
// request codec, 142 before the snapshot codec); canonicalizing the
// design on the hit path again would add hundreds.
const exactHitAllocs = 132

// TestExactHitAllocs measures an in-process exact hit of the B19-v7
// submission through Handler and fails past exactHitAllocs. The last
// answer must decode to a done exact hit that carries its result.
func TestExactHitAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector adds allocations")
	}
	body := requestBody(t, variantDoc(t, "B19", 7))
	s := serve.New(serve.Config{Workers: 1, DrainTimeout: 2 * time.Second})
	t.Cleanup(s.Drain)
	h := s.Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	rec := post()
	var snap serve.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("cold submit: HTTP %d %v: %s", rec.Code, err, rec.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for err := error(nil); snap.State != serve.StateDone; {
		if ctx.Err() != nil || snap.State == serve.StateFailed {
			t.Fatalf("cold job %s: %s %s", snap.ID, snap.State, snap.Error)
		}
		time.Sleep(5 * time.Millisecond)
		if snap, err = s.Job(snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if rec = post(); rec.Code != http.StatusAccepted {
			t.Fatalf("exact hit: HTTP %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("exact hit through Handler: %.0f allocs", allocs)
	var hit serve.Snapshot
	if err := hit.UnmarshalJSON(rec.Body.Bytes()); err != nil || hit.SolveKind != "exact_hit" || hit.State != serve.StateDone || len(hit.Result) == 0 {
		t.Fatalf("exact hit answered %v: %s", err, rec.Body)
	}
	if allocs > exactHitAllocs {
		t.Fatalf("exact hit allocates %.0f times, bound %d", allocs, exactHitAllocs)
	}
}

// TestResolvedOptionsHitExact: a request that spells out a default
// option is an exact hit on one that leaves it out, for bench and
// design workloads alike.
func TestResolvedOptionsHitExact(t *testing.T) {
	_, hs, _ := testServer(t, serve.Config{Workers: 1})
	cl := testClient(hs)
	ctx := context.Background()
	doc := variantDoc(t, "B1", 1)
	for _, group := range [][]*serve.JobRequest{
		{{Bench: "B1"}, {Bench: "B1", Mode: "rotate"}, {Bench: "B1", Seed: 1}, {Bench: "B1", TimeLimitMs: 120000}},
		{{Design: doc}, {Design: doc, Seed: 1}, {Design: doc, Mode: "rotate", TimeLimitMs: 120000}},
	} {
		var want []byte
		for i, req := range group {
			snap, err := cl.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			wantKind := "exact_hit"
			if i == 0 {
				wantKind = "cold"
				snap = waitState(t, hs, snap.ID, serve.StateDone, 60*time.Second)
			}
			if snap.SolveKind != wantKind || snap.State != serve.StateDone {
				t.Fatalf("request %d (%s %q mode %q seed %d limit %d): %s %s, want a finished %s", i, req.Bench, nameOf(req.Design),
					req.Mode, req.Seed, req.TimeLimitMs, snap.SolveKind, snap.State, wantKind)
			}
			raw, _, err := cl.Result(ctx, snap.ID)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = raw
			} else if !bytes.Equal(raw, want) {
				t.Fatalf("request %d (%s %q) answered other bytes", i, req.Bench, nameOf(req.Design))
			}
		}
	}
}

func nameOf(doc *arch.Document) string {
	if doc == nil {
		return ""
	}
	return doc.Name
}
