package serve

import (
	"errors"
	"net/http"
)

// ErrorCode is the machine-readable classification every /v1 error
// response carries. Clients branch on the code, humans read the
// message; the two never need to agree on wording.
type ErrorCode string

const (
	// CodeBadRequest: the request itself is invalid (malformed JSON,
	// unknown benchmark, bad options). 400.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound: no such job, or the requested sub-resource (flight
	// journal, telemetry) is not enabled. 404.
	CodeNotFound ErrorCode = "not_found"
	// CodeNotDone: the job exists but has not finished. 409.
	CodeNotDone ErrorCode = "not_done"
	// CodeBaseNotReady: a delta submission names a base job that has
	// not finished successfully. 409.
	CodeBaseNotReady ErrorCode = "base_not_ready"
	// CodeUnavailable: the server is refusing intake (queue full or
	// draining). 503.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeInternal: everything else. 500.
	CodeInternal ErrorCode = "internal"
)

// ErrorBody is the one JSON envelope every /v1 error response uses:
//
//	{"error": {"code": "...", "message": "...", "trace_id": "..."}}
//
// trace_id is present when the route resolved a job, so a client can
// quote the same correlation ID the server logged.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the payload inside the envelope.
type ErrorDetail struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	TraceID string    `json:"trace_id,omitempty"`
}

// classify maps a service error to its envelope code and HTTP status.
func classify(err error) (ErrorCode, int) {
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		return CodeBadRequest, http.StatusBadRequest
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		return CodeUnavailable, http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoFlight),
		errors.Is(err, ErrNoTelemetry), errors.Is(err, ErrNoSLO):
		return CodeNotFound, http.StatusNotFound
	case errors.Is(err, ErrBaseNotReady):
		return CodeBaseNotReady, http.StatusConflict
	case errors.Is(err, ErrNotDone):
		return CodeNotDone, http.StatusConflict
	default:
		return CodeInternal, http.StatusInternalServerError
	}
}

// httpError writes the unified error envelope. The trace ID rides the
// X-Trace-Id header handlers stamp before failing, so the envelope and
// the header always agree.
func httpError(w http.ResponseWriter, err error) {
	code, status := classify(err)
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{
		Code:    code,
		Message: err.Error(),
		TraceID: w.Header().Get("X-Trace-Id"),
	}})
}
