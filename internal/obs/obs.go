// Package obs is the observability layer of the floorplanning flow:
// span-based tracing with pluggable sinks plus an in-process metrics
// registry (see metrics.go).
//
// The design goal is a zero-overhead default: a nil *Tracer is a valid,
// fully inert tracer — every method is nil-safe and the span hot path
// performs no heap allocations when tracing is disabled, so the solver
// inner loops can stay instrumented unconditionally. Attributes are
// typed (no interface{} boxing) for the same reason.
//
// A Span is a named interval with a start time, a duration fixed at
// End, a parent, and a flat attribute list. Instant events (Span.Event
// / Tracer.Event) are zero-duration points parented to a span. Sinks
// receive exactly one Event per span, emitted at End. Sinks must be safe
// for concurrent use: the Freeze and Rotate arms of the flow trace into
// one Tracer from two goroutines.
package obs

import (
	"sync/atomic"
	"time"
)

// attrKind discriminates the typed Attr payload.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
	kindDuration
)

// Attr is one key/value span attribute. Values are stored unboxed;
// construct attrs with String, Int, Int64, Float, Bool, or Duration.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
}

// String returns a string-valued attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: kindString, s: v} }

// Int returns an integer-valued attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, i: int64(v)} }

// Int64 returns an integer-valued attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, i: v} }

// Float returns a float-valued attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f: v} }

// Bool returns a boolean-valued attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.i = 1
	}
	return a
}

// Duration returns a duration-valued attribute (rendered in seconds).
func Duration(key string, v time.Duration) Attr {
	return Attr{Key: key, kind: kindDuration, i: int64(v)}
}

// Event is what sinks receive: one completed span (Instant false) or
// one instant event (Instant true). Sinks must not retain the Event or
// its Attrs slice after Emit returns.
type Event struct {
	// Name is the span or event name (dotted lowercase taxonomy, e.g.
	// "core.probe").
	Name string
	// ID is unique per tracer; Parent is the enclosing span's ID, 0 for
	// roots.
	ID, Parent uint64
	// Start is the span start (or the instant of an instant event).
	Start time.Time
	// Duration is the span length; 0 for instant events.
	Duration time.Duration
	// Instant marks a point event rather than a completed span.
	Instant bool
	// Attrs are the attributes (start attrs followed by End attrs).
	Attrs []Attr
}

// Sink consumes trace events. Implementations must be safe for
// concurrent Emit calls and must not retain the event.
type Sink interface {
	Emit(e *Event)
}

// Tracer fans spans out to its sinks. It also carries an optional
// metrics Registry for the code that holds the tracer to write to;
// spans themselves record no metrics. A nil *Tracer is fully inert;
// construct live tracers with New.
type Tracer struct {
	sinks []Sink
	reg   *Registry
	ids   atomic.Uint64
}

// New returns a tracer emitting to the given sinks (nil sinks are
// dropped). A tracer with no sinks still works as a metrics carrier
// once WithMetrics is applied; its spans are no-ops.
func New(sinks ...Sink) *Tracer {
	t := &Tracer{}
	for _, s := range sinks {
		if s != nil {
			t.sinks = append(t.sinks, s)
		}
	}
	return t
}

// WithMetrics attaches a metrics registry and returns the tracer.
func (t *Tracer) WithMetrics(r *Registry) *Tracer {
	if t != nil {
		t.reg = r
	}
	return t
}

// Registry returns the attached metrics registry; nil when the tracer
// is nil or carries none. A nil *Registry is itself inert, so
// tr.Registry().Counter("x").Add(1) is always safe.
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracing reports whether spans are live (at least one sink).
func (t *Tracer) Tracing() bool { return t != nil && len(t.sinks) > 0 }

// Flusher is the optional sink extension for buffered sinks (JSONLSink
// implements it): Flush writes buffered events through to the
// underlying writer.
type Flusher interface {
	Flush() error
}

// Flush flushes every sink that buffers (implements Flusher), returning
// the first error. Call it on graceful-shutdown paths so buffered trace
// lines are not lost; nil-safe and a no-op for unbuffered sinks.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Span is one traced interval. The zero Span is inert: all methods are
// no-ops and Child propagates the inertness, so disabled tracing
// costs nothing down the call tree.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
}

// Start begins a root span. With a nil tracer or no sinks it returns
// the inert zero Span without allocating.
func (t *Tracer) Start(name string, attrs ...Attr) Span {
	if !t.Tracing() {
		return Span{}
	}
	return t.startSpan(0, name, attrs)
}

// Event emits a root instant event.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if !t.Tracing() {
		return
	}
	t.emitInstant(0, name, attrs)
}

func (t *Tracer) startSpan(parent uint64, name string, attrs []Attr) Span {
	s := Span{tr: t, id: t.ids.Add(1), parent: parent, name: name, start: time.Now()}
	if len(attrs) > 0 {
		// Copy: the caller's variadic slice must not escape, so the
		// disabled path stays allocation-free at every call site.
		s.attrs = append(make([]Attr, 0, len(attrs)+4), attrs...)
	}
	return s
}

func (t *Tracer) emitInstant(parent uint64, name string, attrs []Attr) {
	ev := Event{Name: name, ID: t.ids.Add(1), Parent: parent, Start: time.Now(), Instant: true}
	if len(attrs) > 0 {
		ev.Attrs = append(make([]Attr, 0, len(attrs)), attrs...)
	}
	for _, s := range t.sinks {
		s.Emit(&ev)
	}
}

// Active reports whether the span is live (records and emits).
func (s Span) Active() bool { return s.tr != nil }

// Child begins a sub-span. On an inert parent it returns an inert span.
func (s Span) Child(name string, attrs ...Attr) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.startSpan(s.id, name, attrs)
}

// Event emits an instant event parented to this span.
func (s Span) Event(name string, attrs ...Attr) {
	if s.tr == nil {
		return
	}
	s.tr.emitInstant(s.id, name, attrs)
}

// End completes the span, appending the given attrs to the start attrs
// and emitting the span's single Event to every sink. End on an inert
// span is a no-op; ending a span twice emits twice (don't).
func (s Span) End(attrs ...Attr) {
	if s.tr == nil {
		return
	}
	ev := Event{
		Name:     s.name,
		ID:       s.id,
		Parent:   s.parent,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    append(s.attrs, attrs...),
	}
	for _, sink := range s.tr.sinks {
		sink.Emit(&ev)
	}
}
