package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"agingfp/internal/wire"
)

// JSONLSink writes one JSON object per completed span or instant event,
// suitable for chrome://tracing-style post-processing:
//
//	{"name":"core.probe","id":7,"parent":2,"start_us":1722850000000000,
//	 "dur_us":21700,"attrs":{"st_target":0.512,"ok":false}}
//
// start_us is microseconds since the Unix epoch; dur_us is the span
// duration (0 with "instant":true for point events). Output is buffered;
// call Close (or Flush) to drain it. Safe for concurrent use.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// jsonlFlushAt bounds the internal buffer before a write is forced.
const jsonlFlushAt = 1 << 16

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit implements Sink.
func (s *JSONLSink) Emit(e *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.buf
	b = append(b, `{"name":`...)
	b = wire.AppendString(b, e.Name)
	b = append(b, `,"id":`...)
	b = strconv.AppendUint(b, e.ID, 10)
	if e.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, e.Parent, 10)
	}
	b = append(b, `,"start_us":`...)
	b = strconv.AppendInt(b, e.Start.UnixMicro(), 10)
	b = append(b, `,"dur_us":`...)
	b = strconv.AppendInt(b, e.Duration.Microseconds(), 10)
	if e.Instant {
		b = append(b, `,"instant":true`...)
	}
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = wire.AppendString(b, a.Key)
			b = append(b, ':')
			b = appendJSONValue(b, a)
		}
		b = append(b, '}')
	}
	b = append(b, '}', '\n')
	s.buf = b
	if len(s.buf) >= jsonlFlushAt {
		s.flushLocked()
	}
}

// Flush writes any buffered lines through to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	return s.err
}

// Close flushes; it does not close the underlying writer.
func (s *JSONLSink) Close() error { return s.Flush() }

func (s *JSONLSink) flushLocked() {
	if len(s.buf) == 0 || s.err != nil {
		return
	}
	_, s.err = s.w.Write(s.buf)
	s.buf = s.buf[:0]
}

func appendJSONValue(b []byte, a Attr) []byte {
	switch a.kind {
	case kindString:
		return wire.AppendString(b, a.s)
	case kindInt:
		return strconv.AppendInt(b, a.i, 10)
	case kindFloat:
		if math.IsNaN(a.f) || math.IsInf(a.f, 0) {
			return append(b, "null"...) // JSON has no NaN or Inf literal
		}
		return wire.AppendFloat(b, a.f)
	case kindBool:
		return strconv.AppendBool(b, a.i != 0)
	case kindDuration:
		// Durations serialize as float seconds.
		return wire.AppendFloat(b, time.Duration(a.i).Seconds())
	default:
		return append(b, "null"...)
	}
}
