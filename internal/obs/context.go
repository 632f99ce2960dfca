package obs

import "context"

// Context propagation. A job's tracer reaches the solver in its
// Options; the trace/correlation ID and the live progress reporter
// ride the context.Context that already flows end to end for
// cancellation:
//
//	ctx = obs.WithTraceID(ctx, "4be1c9...")
//	ctx = obs.WithReporter(ctx, reporter)
//
// Both accessors are nil-safe on a nil context and return the inert
// zero value ("", (*Reporter)(nil)) when nothing is attached, so
// callers never branch.

type ctxKey int

const (
	ctxTraceID ctxKey = iota
	ctxReporter
)

// WithTraceID returns a context carrying the job's trace/correlation ID.
// The ID is free-form; the job server uses 16 hex characters.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxTraceID, id)
}

// TraceIDFrom returns the trace/correlation ID attached to ctx, or ""
// when ctx is nil or carries none.
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxTraceID).(string)
	return id
}

// WithReporter returns a context carrying a live progress reporter.
func WithReporter(ctx context.Context, r *Reporter) context.Context {
	return context.WithValue(ctx, ctxReporter, r)
}

// ReporterFrom returns the progress reporter attached to ctx, or nil
// (the inert reporter) when ctx is nil or carries none.
func ReporterFrom(ctx context.Context) *Reporter {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxReporter).(*Reporter)
	return r
}
