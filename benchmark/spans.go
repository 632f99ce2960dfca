package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call: name, start, end, the span that caused it,
// and the root span of the operation it belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Root    int    `json:"root"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 starts a new operation) and
// returns the function that closes it and the new span's id.
func (t *tracer) start(name string, parent int) (end func(), id int) {
	if t == nil {
		return func() {}, 0
	}
	t.mu.Lock()
	id = len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Name: name,
		StartUs: time.Since(t.t0).Microseconds()})
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id-1].EndUs = time.Since(t.t0).Microseconds()
		t.mu.Unlock()
	}, id
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover, and counts the spans.
func (t *tracer) selfTimes() (names []string, selfMs map[string]float64, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childUs := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			childUs[s.Parent] += s.EndUs - s.StartUs
		}
	}
	selfMs = map[string]float64{}
	count = map[string]int{}
	for _, s := range t.spans {
		self := s.EndUs - s.StartUs - childUs[s.ID]
		if self < 0 {
			self = 0 // children of one parent may overlap in time
		}
		if _, ok := selfMs[s.Name]; !ok {
			names = append(names, s.Name)
		}
		selfMs[s.Name] += float64(self) / 1e3
		count[s.Name]++
	}
	sort.Strings(names)
	return names, selfMs, count
}

func (t *tracer) printSelfTimes() {
	names, self, count := t.selfTimes()
	for _, n := range names {
		fmt.Printf("span %-24s self %10.1f ms  n=%d\n", n, self[n], count[n])
	}
}
