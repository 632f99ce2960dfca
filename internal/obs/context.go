package obs

import "context"

// Context propagation. The job server owns the per-request observability
// state — the tracer, the trace/correlation ID, and the live progress
// reporter — and the solver layers (core, lp) sit several calls
// below it behind stable APIs. Rather than threading three extra
// parameters through every signature, the request-scoped trio rides the
// context.Context that already flows end to end for cancellation:
//
//	ctx = obs.WithTracer(ctx, tracer)
//	ctx = obs.WithTraceID(ctx, "4be1c9...")
//	ctx = obs.WithReporter(ctx, reporter)
//
// Each solver layer falls back to the context value only when its own
// Options.Trace is nil, so explicit wiring (tests, the CLI) always wins.
// All accessors are nil-safe on a nil context and return the inert zero
// value ((*Tracer)(nil), "", (*Reporter)(nil)) when nothing is attached,
// so callers never branch.

type ctxKey int

const (
	ctxTracer ctxKey = iota
	ctxTraceID
	ctxReporter
)

// WithTracer returns a context carrying t. A nil t is stored as-is (the
// nil tracer is valid and inert), which lets a caller deliberately mask
// an outer tracer.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, ctxTracer, t)
}

// TracerFrom returns the tracer attached to ctx, or nil (the inert
// tracer) when ctx is nil or carries none.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxTracer).(*Tracer)
	return t
}

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
