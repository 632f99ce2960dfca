// Package client is the typed Go client for the agingfloord HTTP API.
// It speaks the same wire types the server defines (serve.JobRequest,
// serve.Snapshot, serve.JobResult, ...), decodes the unified error
// envelope into *APIError, and owns the wait-until-done loop every
// caller was otherwise hand-rolling. A done snapshot carries its
// result, so Result answers from the last one received without a
// second request.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"agingfp/internal/serve"
	"agingfp/internal/slo"
)

// APIError is a non-2xx response decoded from the server's error
// envelope. Status is the HTTP code; Code the machine-readable
// classification; TraceID correlates with the server's logs when the
// route resolved a job.
type APIError struct {
	Status  int
	Code    serve.ErrorCode
	Message string
	TraceID string
}

func (e *APIError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("%s (http %d, code %s, trace %s)", e.Message, e.Status, e.Code, e.TraceID)
	}
	return fmt.Sprintf("%s (http %d, code %s)", e.Message, e.Status, e.Code)
}

// Client talks to one agingfloord server.
type Client struct {
	base string
	http *http.Client
	// PollInterval is Wait's pause before it re-issues a blocking wait
	// that came back with the job unfinished (default 150ms).
	PollInterval time.Duration
	// Tenant, when set, rides every request as the X-Tenant header — the
	// accounting identity the server attributes jobs and resource usage
	// to. Empty submits anonymously (the server accounts it as "anon").
	Tenant string

	// mu guards held: the job ID and result of the last done snapshot
	// received, kept for Result.
	mu   sync.Mutex
	held struct {
		id  string
		raw []byte
	}
}

// New builds a client for the server at base (e.g.
// "http://localhost:8080"). A nil httpClient uses a dedicated client
// with no global timeout — job waits are bounded by the caller's
// context, not a transport knob. (An http.Client Timeout shorter than
// serve.MaxWait would cut Wait's blocking requests short.)
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{
		base:         strings.TrimRight(base, "/"),
		http:         httpClient,
		PollInterval: 150 * time.Millisecond,
	}
}

// do issues one request and decodes errors into *APIError. A request
// document with its own wire codec (serve.JobRequest, DeltaRequest)
// encodes itself. A nil out skips body decoding; *[]byte captures the
// raw body; a document with its own codec (serve.Snapshot) decodes
// itself; anything else is JSON-decoded into.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		var (
			b   []byte
			err error
		)
		if m, ok := in.(json.Marshaler); ok {
			b, err = m.MarshalJSON()
		} else {
			b, err = json.Marshal(in)
		}
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
		var envelope serve.ErrorBody
		if json.Unmarshal(raw, &envelope) == nil && envelope.Error.Message != "" {
			apiErr.Code = envelope.Error.Code
			apiErr.Message = envelope.Error.Message
			apiErr.TraceID = envelope.Error.TraceID
		}
		return apiErr
	}
	switch dst := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*dst = raw
		return nil
	case json.Unmarshaler:
		return dst.UnmarshalJSON(raw)
	default:
		return json.Unmarshal(raw, out)
	}
}

// Submit posts a job and returns its snapshot (202). A cache hit's
// snapshot is done and carries its result.
func (c *Client) Submit(ctx context.Context, req *serve.JobRequest) (serve.Snapshot, error) {
	return c.snapshot(ctx, http.MethodPost, "/v1/jobs", req)
}

// Delta posts an incremental re-solve against a finished base job.
func (c *Client) Delta(ctx context.Context, baseID string, req *serve.DeltaRequest) (serve.Snapshot, error) {
	return c.snapshot(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(baseID)+"/delta", req)
}

// Job fetches a job's status snapshot.
func (c *Client) Job(ctx context.Context, id string) (serve.Snapshot, error) {
	return c.snapshot(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil)
}

// snapshot issues a request answered by a snapshot and holds the
// result the snapshot carries, if any, for Result.
func (c *Client) snapshot(ctx context.Context, method, path string, in interface{}) (serve.Snapshot, error) {
	var snap serve.Snapshot
	err := c.do(ctx, method, path, in, &snap)
	if err == nil && len(snap.Result) > 0 {
		c.mu.Lock()
		c.held.id, c.held.raw = snap.ID, snap.Result
		c.mu.Unlock()
	}
	return snap, err
}

// Result returns a finished job's raw result document and its decoded
// form. When the last done snapshot this client received was the job's,
// the result it carried is returned (and released) without a request;
// otherwise it is fetched with GET /v1/jobs/{id}/result. The raw bytes
// are returned so byte-exactness (the cache contract) survives the
// client.
func (c *Client) Result(ctx context.Context, id string) ([]byte, *serve.JobResult, error) {
	var raw []byte
	c.mu.Lock()
	if c.held.id == id {
		raw = c.held.raw
		c.held.id, c.held.raw = "", nil
	}
	c.mu.Unlock()
	if raw == nil {
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &raw); err != nil {
			return nil, nil, err
		}
	}
	var res serve.JobResult
	if err := res.UnmarshalJSON(raw); err != nil {
		return raw, nil, err
	}
	return raw, &res, nil
}

// Report fetches the flight-recorder report. format is "json", "text",
// or "journal" ("" = server default).
func (c *Client) Report(ctx context.Context, id, format string) ([]byte, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/report"
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	var raw []byte
	err := c.do(ctx, http.MethodGet, path, nil, &raw)
	return raw, err
}

// SLO fetches the server's service-level-objective status: per-objective
// SLIs, error-budget remaining, and multi-window burn rates. window ""
// uses the server default (the engine's full ring span); otherwise a Go
// duration string like "1h". 404 (*APIError) when the server runs
// without an SLO engine.
func (c *Client) SLO(ctx context.Context, window string) (*slo.Status, error) {
	path := "/v1/slo"
	if window != "" {
		path += "?window=" + url.QueryEscape(window)
	}
	var st slo.Status
	if err := c.do(ctx, http.MethodGet, path, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel requests cooperative cancellation and returns the job's
// post-cancel snapshot.
func (c *Client) Cancel(ctx context.Context, id string) (serve.Snapshot, error) {
	return c.snapshot(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil)
}

// Wait blocks until the job reaches a terminal state (done, failed,
// canceled) and returns the final snapshot; a done one carries the
// result, which Result then returns without a request. Each request is
// a blocking wait (GET /v1/jobs/{id}?wait=) for the time left on ctx, at
// most serve.MaxWait; one that comes back with the job unfinished is
// re-issued after PollInterval. The context bounds the wait; a failed
// or canceled job is returned with a nil error — the caller decides
// whether that is a problem.
func (c *Client) Wait(ctx context.Context, id string) (serve.Snapshot, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 150 * time.Millisecond
	}
	for {
		wait := serve.MaxWait
		if deadline, ok := ctx.Deadline(); ok {
			wait = max(min(wait, time.Until(deadline)), 0)
		}
		path := "/v1/jobs/" + url.PathEscape(id) + "?wait=" + strconv.FormatInt(wait.Milliseconds(), 10) + "ms"
		snap, err := c.snapshot(ctx, http.MethodGet, path, nil)
		if err != nil {
			return snap, err
		}
		switch snap.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return snap, nil
		}
		select {
		case <-ctx.Done():
			return snap, ctx.Err()
		case <-time.After(interval):
		}
	}
}
