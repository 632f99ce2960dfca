package telemetry

import "time"

// Ring is a fixed ring of time cells, Step wide, holding one C per
// cell. An event lands in the cell of its own timestamp, so replaying
// stored history rebuilds the cells a live process had; a window query
// walks the cells inside the trailing window. The Aggregator behind
// /v1/stats and the SLO engine behind /v1/slo both keep their counts in
// a Ring, so the two views slot, drop and window events by one rule.
//
// A window of the full span touches n+1 cells (the oldest one only in
// part), so a ring spanning n steps holds n+1 cells. No two cells of a
// window share a slot: an event inside a window is dropped or
// overwritten only by one stamped after the window's end. A Ring does
// no locking; its owner serializes access.
type Ring[C any] struct {
	step  time.Duration
	cells []ringCell[C]
}

type ringCell[C any] struct {
	start int64 // unix nanoseconds of the cell start; 0 = empty
	val   C
}

// NewRing builds a ring spanning n cells, each step wide.
func NewRing[C any](step time.Duration, n int) *Ring[C] {
	return &Ring[C]{step: step, cells: make([]ringCell[C], n+1)}
}

// Step is the cell width.
func (r *Ring[C]) Step() time.Duration { return r.step }

// Span is the total history the ring can hold.
func (r *Ring[C]) Span() time.Duration { return r.step * time.Duration(len(r.cells)-1) }

// Clamp maps a non-positive window, or one longer than the span, to
// the span.
func (r *Ring[C]) Clamp(window time.Duration) time.Duration {
	if window <= 0 || window > r.Span() {
		return r.Span()
	}
	return window
}

// index is the slot of a cell starting at start (unix nanoseconds).
func (r *Ring[C]) index(start int64) int {
	i := int((start / int64(r.step)) % int64(len(r.cells)))
	if i < 0 {
		i += len(r.cells)
	}
	return i
}

// Slot returns the cell for time t. A slot still holding an older cell
// is taken over and its value zeroed; nil means the slot already holds
// a newer cell, so t lies beyond the ring's horizon and the event is
// dropped.
func (r *Ring[C]) Slot(t time.Time) *C {
	start := t.Truncate(r.step).UnixNano()
	c := &r.cells[r.index(start)]
	if c.start != start {
		if c.start > start {
			return nil
		}
		*c = ringCell[C]{start: start}
	}
	return &c.val
}

// At returns the cell starting at start, or nil when the ring does not
// hold it.
func (r *Ring[C]) At(start time.Time) *C {
	ns := start.UnixNano()
	if c := &r.cells[r.index(ns)]; c.start == ns {
		return &c.val
	}
	return nil
}

// Each calls fn, in slot order, on every cell inside the trailing
// window ending at now: cells starting no earlier than now-window
// truncated to the step, and no later than now.
func (r *Ring[C]) Each(now time.Time, window time.Duration, fn func(*C)) {
	since := now.Add(-r.Clamp(window)).Truncate(r.step).UnixNano()
	until := now.UnixNano()
	for i := range r.cells {
		c := &r.cells[i]
		if c.start != 0 && c.start >= since && c.start <= until {
			fn(&c.val)
		}
	}
}
