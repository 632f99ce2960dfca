package serve

import (
	"encoding/json"
	"sort"
	"strconv"
	"time"

	"agingfp/internal/arch"
	"agingfp/internal/obs"
	"agingfp/internal/wire"
)

// The wire codec of the request, result and snapshot documents. As for
// arch.Document, the plain form is read by schema in one pass (an
// embedded design included) and every other input is handed whole to
// encoding/json through a method-less type of the same name (declared
// from these aliases, which name the real types where the local one
// shadows them), so the two accept, reject and decode the same inputs;
// encoders write encoding/json's bytes. The one exception is a
// snapshot's result member, which is written and read verbatim.
type (
	plainJobRequest   = JobRequest
	plainDeltaRequest = DeltaRequest
	plainJobResult    = JobResult
	plainSnapshot     = Snapshot
)

// UnmarshalJSON decodes a submission.
func (r *JobRequest) UnmarshalJSON(data []byte) error {
	if *r == (JobRequest{}) {
		s := wire.NewScanner(data)
		r.scan(&s)
		if s.Done() {
			return nil
		}
		*r = JobRequest{}
	}
	type JobRequest plainJobRequest
	return json.Unmarshal(data, (*JobRequest)(r))
}

func (r *JobRequest) scan(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "bench":
			if s.Field(&seen, 0) {
				r.Bench = s.Text()
			}
		case "design":
			if s.Field(&seen, 1) {
				r.Design = new(arch.Document)
				r.Design.ScanJSON(s)
			}
		case "mode":
			if s.Field(&seen, 2) {
				r.Mode = s.Text()
			}
		case "seed":
			if s.Field(&seen, 3) {
				r.Seed = s.Int64()
			}
		case "time_limit_ms":
			if s.Field(&seen, 4) {
				r.TimeLimitMs = s.Int64()
			}
		case "deadline_ms":
			if s.Field(&seen, 5) {
				r.DeadlineMs = s.Int64()
			}
		case "tenant":
			if s.Field(&seen, 6) {
				r.Tenant = s.Text()
			}
		default:
			s.Fail()
		}
	}
}

// MarshalJSON encodes a submission as encoding/json encodes the struct.
func (r JobRequest) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 256)
	b = append(b, '{')
	fields := len(b)
	if r.Bench != "" {
		b = append(b, `,"bench":`...)
		b = wire.AppendString(b, r.Bench)
	}
	if r.Design != nil {
		var err error
		b = append(b, `,"design":`...)
		if b, err = r.Design.AppendJSON(b); err != nil {
			return nil, err
		}
	}
	if r.Mode != "" {
		b = append(b, `,"mode":`...)
		b = wire.AppendString(b, r.Mode)
	}
	b = appendOptions(b, r.Seed, r.TimeLimitMs, r.DeadlineMs, r.Tenant)
	if len(b) > fields {
		// Every member was written after a comma; drop the first.
		b = append(b[:fields], b[fields+1:]...)
	}
	return append(b, '}'), nil
}

// appendOptions writes the omitempty option members both request
// documents end with, each after a comma.
func appendOptions(b []byte, seed, timeLimitMs, deadlineMs int64, tenant string) []byte {
	if seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, seed, 10)
	}
	if timeLimitMs != 0 {
		b = append(b, `,"time_limit_ms":`...)
		b = strconv.AppendInt(b, timeLimitMs, 10)
	}
	if deadlineMs != 0 {
		b = append(b, `,"deadline_ms":`...)
		b = strconv.AppendInt(b, deadlineMs, 10)
	}
	if tenant != "" {
		b = append(b, `,"tenant":`...)
		b = wire.AppendString(b, tenant)
	}
	return b
}

// UnmarshalJSON decodes a delta submission.
func (r *DeltaRequest) UnmarshalJSON(data []byte) error {
	if *r == (DeltaRequest{}) {
		s := wire.NewScanner(data)
		r.scan(&s)
		if s.Done() {
			return nil
		}
		*r = DeltaRequest{}
	}
	type DeltaRequest plainDeltaRequest
	return json.Unmarshal(data, (*DeltaRequest)(r))
}

func (r *DeltaRequest) scan(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "design":
			if s.Field(&seen, 0) {
				r.Design = new(arch.Document)
				r.Design.ScanJSON(s)
			}
		case "mode":
			if s.Field(&seen, 1) {
				r.Mode = s.Text()
			}
		case "seed":
			if s.Field(&seen, 2) {
				r.Seed = s.Int64()
			}
		case "time_limit_ms":
			if s.Field(&seen, 3) {
				r.TimeLimitMs = s.Int64()
			}
		case "deadline_ms":
			if s.Field(&seen, 4) {
				r.DeadlineMs = s.Int64()
			}
		case "tenant":
			if s.Field(&seen, 5) {
				r.Tenant = s.Text()
			}
		default:
			s.Fail()
		}
	}
}

// MarshalJSON encodes a delta submission as encoding/json encodes the
// struct.
func (r DeltaRequest) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 256)
	b = append(b, `{"design":`...)
	if r.Design == nil {
		b = append(b, "null"...)
	} else {
		var err error
		if b, err = r.Design.AppendJSON(b); err != nil {
			return nil, err
		}
	}
	if r.Mode != "" {
		b = append(b, `,"mode":`...)
		b = wire.AppendString(b, r.Mode)
	}
	b = appendOptions(b, r.Seed, r.TimeLimitMs, r.DeadlineMs, r.Tenant)
	return append(b, '}'), nil
}

// UnmarshalJSON decodes a result document, the indented form the
// server writes included.
func (res *JobResult) UnmarshalJSON(data []byte) error {
	if res.isZero() {
		s := wire.NewScanner(data)
		res.scan(&s)
		if s.Done() {
			return nil
		}
		*res = JobResult{}
	}
	type JobResult plainJobResult
	return json.Unmarshal(data, (*JobResult)(res))
}

func (res *JobResult) isZero() bool {
	return res.Design == "" && res.Ops == 0 && res.Contexts == 0 && res.Status == "" && !res.Improved &&
		res.STTarget == 0 && res.STLower == 0 && res.OrigMaxStress == 0 && res.NewMaxStress == 0 &&
		res.OrigCPDNs == 0 && res.NewCPDNs == 0 &&
		res.MTTF == (MTTFSummary{}) && res.Stats == (SolveStats{}) && res.Mapping == nil
}

func (res *JobResult) scan(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "design":
			if s.Field(&seen, 0) {
				res.Design = s.Text()
			}
		case "ops":
			if s.Field(&seen, 1) {
				res.Ops = s.Int()
			}
		case "contexts":
			if s.Field(&seen, 2) {
				res.Contexts = s.Int()
			}
		case "status":
			if s.Field(&seen, 3) {
				res.Status = s.Text()
			}
		case "improved":
			if s.Field(&seen, 4) {
				res.Improved = s.Bool()
			}
		case "st_target":
			if s.Field(&seen, 5) {
				res.STTarget = s.Float64()
			}
		case "st_lower_bound":
			if s.Field(&seen, 6) {
				res.STLower = s.Float64()
			}
		case "orig_max_stress":
			if s.Field(&seen, 7) {
				res.OrigMaxStress = s.Float64()
			}
		case "new_max_stress":
			if s.Field(&seen, 8) {
				res.NewMaxStress = s.Float64()
			}
		case "orig_cpd_ns":
			if s.Field(&seen, 9) {
				res.OrigCPDNs = s.Float64()
			}
		case "new_cpd_ns":
			if s.Field(&seen, 10) {
				res.NewCPDNs = s.Float64()
			}
		case "mttf":
			if s.Field(&seen, 11) {
				res.MTTF.scan(s)
			}
		case "stats":
			if s.Field(&seen, 12) {
				res.Stats.scan(s)
			}
		case "mapping":
			if s.Field(&seen, 13) {
				res.Mapping = s.Pairs()
			}
		default:
			s.Fail()
		}
	}
}

func (m *MTTFSummary) scan(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "before_hours":
			if s.Field(&seen, 0) {
				m.BeforeHours = s.Float64()
			}
		case "after_hours":
			if s.Field(&seen, 1) {
				m.AfterHours = s.Float64()
			}
		case "increase":
			if s.Field(&seen, 2) {
				m.Increase = s.Float64()
			}
		default:
			s.Fail()
		}
	}
}

func (st *SolveStats) scan(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "lp_solves":
			if s.Field(&seen, 0) {
				st.LPSolves = s.Int()
			}
		case "simplex_iters":
			if s.Field(&seen, 1) {
				st.SimplexIters = s.Int()
			}
		case "st_probes":
			if s.Field(&seen, 2) {
				st.STProbes = s.Int()
			}
		case "probe_timeouts":
			if s.Field(&seen, 3) {
				st.ProbeTimeouts = s.Int()
			}
		default:
			s.Fail()
		}
	}
}

// MarshalJSON encodes the snapshot as encoding/json encodes the struct,
// except that a result document is appended as it is: encoding/json
// would compact it and escape its HTML characters, and it is the exact
// bytes GET /v1/jobs/{id}/result serves.
func (snap Snapshot) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 512+len(snap.Result))
	b = append(b, `{"id":`...)
	b = wire.AppendString(b, snap.ID)
	if snap.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = wire.AppendString(b, snap.TraceID)
	}
	if snap.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = wire.AppendString(b, snap.Tenant)
	}
	b = append(b, `,"state":`...)
	b = wire.AppendString(b, string(snap.State))
	for _, m := range [...]struct{ key, val string }{
		{`,"error":`, snap.Error},
		{`,"solve_kind":`, snap.SolveKind},
		{`,"base_job":`, snap.BaseJob},
		{`,"delta_fallback":`, snap.DeltaFallback},
	} {
		if m.val != "" {
			b = append(b, m.key...)
			b = wire.AppendString(b, m.val)
		}
	}
	if r := snap.Reuse; r != nil {
		b = append(b, `,"reuse":{"frozen_reused":`...)
		b = strconv.AppendBool(b, r.FrozenReused)
		b = append(b, `,"bases_seeded":`...)
		b = strconv.AppendInt(b, int64(r.BasesSeeded), 10)
		b = append(b, `,"bracket_hit":`...)
		b = strconv.AppendBool(b, r.BracketHit)
		b = append(b, '}')
	}
	if snap.Cost != nil {
		var err error
		b = append(b, `,"cost":`...)
		if b, err = snap.Cost.appendJSON(b); err != nil {
			return nil, err
		}
	}
	for _, m := range [...]struct {
		key string
		t   time.Time
	}{{`,"submitted":`, snap.Submitted}, {`,"started":`, snap.Started}, {`,"finished":`, snap.Finished}} {
		var err error
		b = append(b, m.key...)
		if b, err = wire.AppendTime(b, m.t); err != nil {
			return nil, err
		}
	}
	b = append(b, `,"progress":`...)
	b, err := appendProgress(b, &snap.Progress)
	if err != nil {
		return nil, err
	}
	if len(snap.Result) > 0 {
		b = append(b, `,"result":`...)
		b = append(b, snap.Result...)
	}
	return append(b, '}'), nil
}

// appendProgress writes p as encoding/json writes obs.Progress. The
// codec lives here, beside the one document that carries it.
func appendProgress(b []byte, p *obs.Progress) ([]byte, error) {
	if err := wire.CheckFloats(p.STTarget); err != nil {
		return nil, err
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, p.Seq, 10)
	if p.Phase != "" {
		b = append(b, `,"phase":`...)
		b = wire.AppendString(b, p.Phase)
	}
	if p.STTarget != 0 {
		b = append(b, `,"st_target":`...)
		b = wire.AppendFloat(b, p.STTarget)
	}
	for _, m := range [...]struct {
		key string
		n   int64
	}{{`,"st_probes":`, int64(p.STProbes)}, {`,"relax_rounds":`, int64(p.RelaxRounds)}, {`,"batch":`, int64(p.Batch)},
		{`,"batches":`, int64(p.Batches)}, {`,"lp_solves":`, p.LPSolves}, {`,"simplex_iters":`, p.SimplexIters}} {
		if m.n != 0 {
			b = append(b, m.key...)
			b = strconv.AppendInt(b, m.n, 10)
		}
	}
	if p.Done {
		b = append(b, `,"done":true`...)
	}
	if p.Status != "" {
		b = append(b, `,"status":`...)
		b = wire.AppendString(b, p.Status)
	}
	if p.UpdatedUnixMicro != 0 {
		b = append(b, `,"updated_us":`...)
		b = strconv.AppendInt(b, p.UpdatedUnixMicro, 10)
	}
	return append(b, '}'), nil
}

func (c *CostReport) appendJSON(b []byte) ([]byte, error) {
	if err := wire.CheckFloats(c.QueueWaitMs, c.SolveMs); err != nil {
		return nil, err
	}
	b = append(b, `{"tier":`...)
	b = wire.AppendString(b, c.Tier)
	b = append(b, `,"queue_wait_ms":`...)
	b = wire.AppendFloat(b, c.QueueWaitMs)
	b = append(b, `,"solve_ms":`...)
	b = wire.AppendFloat(b, c.SolveMs)
	for _, m := range [...]struct {
		key string
		n   int
	}{{`,"lp_solves":`, c.LPSolves}, {`,"simplex_iters":`, c.SimplexIters}, {`,"st_probes":`, c.STProbes}} {
		if m.n != 0 {
			b = append(b, m.key...)
			b = strconv.AppendInt(b, int64(m.n), 10)
		}
	}
	if len(c.PhaseMs) > 0 {
		names := make([]string, 0, len(c.PhaseMs))
		for name, ms := range c.PhaseMs {
			if err := wire.CheckFloats(ms); err != nil {
				return nil, err
			}
			names = append(names, name)
		}
		sort.Strings(names)
		b = append(b, `,"phase_ms":`...)
		sep := byte('{')
		for _, name := range names {
			b = append(b, sep)
			sep = ','
			b = wire.AppendString(b, name)
			b = append(b, ':')
			b = wire.AppendFloat(b, c.PhaseMs[name])
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes a snapshot. A result member is kept as the
// sub-slice of data that holds it, its syntax checked but its content
// not decoded: JobResult's UnmarshalJSON reads it when the caller asks.
func (snap *Snapshot) UnmarshalJSON(data []byte) error {
	if snap.isZero() {
		s := wire.NewScanner(data)
		snap.scan(&s)
		if s.Done() {
			return nil
		}
		*snap = Snapshot{}
	}
	type Snapshot plainSnapshot
	return json.Unmarshal(data, (*Snapshot)(snap))
}

func (snap *Snapshot) isZero() bool {
	return snap.ID == "" && snap.TraceID == "" && snap.Tenant == "" && snap.State == "" && snap.Error == "" &&
		snap.SolveKind == "" && snap.BaseJob == "" && snap.DeltaFallback == "" && snap.Reuse == nil &&
		snap.Cost == nil && snap.Submitted.IsZero() && snap.Started.IsZero() && snap.Finished.IsZero() &&
		snap.Progress == (obs.Progress{}) && snap.Result == nil
}

func (snap *Snapshot) scan(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "id":
			if s.Field(&seen, 0) {
				snap.ID = s.Text()
			}
		case "trace_id":
			if s.Field(&seen, 1) {
				snap.TraceID = s.Text()
			}
		case "tenant":
			if s.Field(&seen, 2) {
				snap.Tenant = s.Text()
			}
		case "state":
			if s.Field(&seen, 3) {
				snap.State = JobState(s.Text())
			}
		case "error":
			if s.Field(&seen, 4) {
				snap.Error = s.Text()
			}
		case "solve_kind":
			if s.Field(&seen, 5) {
				snap.SolveKind = s.Text()
			}
		case "base_job":
			if s.Field(&seen, 6) {
				snap.BaseJob = s.Text()
			}
		case "delta_fallback":
			if s.Field(&seen, 7) {
				snap.DeltaFallback = s.Text()
			}
		case "reuse":
			if s.Field(&seen, 8) {
				snap.Reuse = new(ReuseInfo)
				snap.Reuse.scan(s)
			}
		case "cost":
			if s.Field(&seen, 9) {
				snap.Cost = new(CostReport)
				snap.Cost.scan(s)
			}
		case "submitted":
			if s.Field(&seen, 10) {
				snap.Submitted = s.Time()
			}
		case "started":
			if s.Field(&seen, 11) {
				snap.Started = s.Time()
			}
		case "finished":
			if s.Field(&seen, 12) {
				snap.Finished = s.Time()
			}
		case "progress":
			if s.Field(&seen, 14) {
				scanProgress(s, &snap.Progress)
			}
		case "result":
			if s.Field(&seen, 13) {
				snap.Result = s.Raw()
			} else {
				// encoding/json hands a null to json.RawMessage's
				// UnmarshalJSON, which keeps it.
				snap.Result = json.RawMessage("null")
			}
		default:
			s.Fail()
		}
	}
}

func scanProgress(s *wire.Scanner, p *obs.Progress) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "seq":
			if s.Field(&seen, 0) {
				p.Seq = s.Uint64()
			}
		case "phase":
			if s.Field(&seen, 1) {
				p.Phase = s.Text()
			}
		case "st_target":
			if s.Field(&seen, 2) {
				p.STTarget = s.Float64()
			}
		case "st_probes":
			if s.Field(&seen, 3) {
				p.STProbes = s.Int()
			}
		case "relax_rounds":
			if s.Field(&seen, 4) {
				p.RelaxRounds = s.Int()
			}
		case "batch":
			if s.Field(&seen, 5) {
				p.Batch = s.Int()
			}
		case "batches":
			if s.Field(&seen, 6) {
				p.Batches = s.Int()
			}
		case "lp_solves":
			if s.Field(&seen, 7) {
				p.LPSolves = s.Int64()
			}
		case "simplex_iters":
			if s.Field(&seen, 8) {
				p.SimplexIters = s.Int64()
			}
		case "done":
			if s.Field(&seen, 9) {
				p.Done = s.Bool()
			}
		case "status":
			if s.Field(&seen, 10) {
				p.Status = s.Text()
			}
		case "updated_us":
			if s.Field(&seen, 11) {
				p.UpdatedUnixMicro = s.Int64()
			}
		default:
			s.Fail()
		}
	}
}

func (r *ReuseInfo) scan(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "frozen_reused":
			if s.Field(&seen, 0) {
				r.FrozenReused = s.Bool()
			}
		case "bases_seeded":
			if s.Field(&seen, 1) {
				r.BasesSeeded = s.Int()
			}
		case "bracket_hit":
			if s.Field(&seen, 2) {
				r.BracketHit = s.Bool()
			}
		default:
			s.Fail()
		}
	}
}

func (c *CostReport) scan(s *wire.Scanner) {
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "tier":
			if s.Field(&seen, 0) {
				c.Tier = s.Text()
			}
		case "queue_wait_ms":
			if s.Field(&seen, 1) {
				c.QueueWaitMs = s.Float64()
			}
		case "solve_ms":
			if s.Field(&seen, 2) {
				c.SolveMs = s.Float64()
			}
		case "lp_solves":
			if s.Field(&seen, 3) {
				c.LPSolves = s.Int()
			}
		case "simplex_iters":
			if s.Field(&seen, 4) {
				c.SimplexIters = s.Int()
			}
		case "st_probes":
			if s.Field(&seen, 5) {
				c.STProbes = s.Int()
			}
		case "phase_ms":
			if s.Field(&seen, 6) {
				// Like encoding/json, a repeated name overwrites.
				c.PhaseMs = map[string]float64{}
				for more := s.Object(); more; more = s.More('}') {
					name := s.MapKey()
					c.PhaseMs[name] = s.Float64()
				}
			}
		default:
			s.Fail()
		}
	}
}
