package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store is the durable half of the pipeline: wide events appended as
// JSON Lines to size-rotated segment files under one directory, with
// bounded retention and crash-safe recovery.
//
//	events-000001.jsonl
//	events-000002.jsonl   <- active segment, appended to
//
// Append rotates to a new segment once the active one exceeds
// MaxSegmentBytes, and deletes the oldest segments beyond MaxSegments —
// so disk usage is bounded by roughly MaxSegmentBytes × MaxSegments no
// matter how long the process runs. A crash can tear at most the final
// line of the active segment; OpenStore truncates a torn tail (a final
// line without its newline) so the segment is clean before any new
// event lands, and Replay additionally skips any line that fails to
// parse, counting it instead of failing the whole history.
type Store struct {
	dir     string
	maxSeg  int64
	maxSegs int

	mu      sync.Mutex
	f       *os.File
	seq     int   // active segment number
	size    int64 // active segment size
	closed  bool
	dropped int64 // events lost to append errors

	// recoveredBytes counts tail bytes truncated at open — non-zero
	// means the previous process died mid-append.
	recoveredBytes int64
}

const (
	segPrefix = "events-"
	segSuffix = ".jsonl"

	// DefaultMaxSegmentBytes rotates segments at 4 MiB — roughly 8k wide
	// events per segment at ~500 bytes each.
	DefaultMaxSegmentBytes = 4 << 20
	// DefaultMaxSegments bounds retention at 8 segments (~32 MiB, ~64k
	// events) — hours to days of heavy traffic, enough for the windowed
	// aggregator's longest window with a wide margin.
	DefaultMaxSegments = 8
)

// OpenStore opens (creating if needed) the event store in dir and
// recovers the active segment's torn tail, if any.
func OpenStore(dir string, maxSegmentBytes int64, maxSegments int) (*Store, error) {
	if maxSegmentBytes <= 0 {
		maxSegmentBytes = DefaultMaxSegmentBytes
	}
	if maxSegments < 2 {
		maxSegments = 2 // the active segment plus at least one sealed one
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: open store: %w", err)
	}
	s := &Store{dir: dir, maxSeg: maxSegmentBytes, maxSegs: maxSegments}
	segs, err := s.segments()
	if err != nil {
		return nil, err
	}
	s.seq = 1
	if n := len(segs); n > 0 {
		s.seq = segs[n-1]
		if err := s.recoverTail(s.segPath(s.seq)); err != nil {
			return nil, err
		}
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// segPath names segment n.
func (s *Store) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix))
}

// segments lists existing segment numbers in ascending order.
func (s *Store) segments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("telemetry: list segments: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil || n < 1 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// recoverTail truncates a torn final line (one missing its trailing
// newline — the footprint of a crash mid-append) so the active segment
// is whole-lines-only before new events are appended after it.
func (s *Store) recoverTail(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("telemetry: recover %s: %w", path, err)
	}
	if len(b) == 0 || b[len(b)-1] == '\n' {
		return nil
	}
	keep := 0
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		keep = i + 1
	}
	s.recoveredBytes = int64(len(b) - keep)
	if err := os.Truncate(path, int64(keep)); err != nil {
		return fmt.Errorf("telemetry: truncate torn tail of %s: %w", path, err)
	}
	return nil
}

// openActive opens the active segment for append and records its size.
func (s *Store) openActive() error {
	f, err := os.OpenFile(s.segPath(s.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("telemetry: stat segment: %w", err)
	}
	s.f, s.size = f, st.Size()
	return nil
}

// RecoveredBytes reports how many torn-tail bytes OpenStore truncated
// (non-zero only after a crash mid-append).
func (s *Store) RecoveredBytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoveredBytes
}

// Dropped reports events lost to append errors since open.
func (s *Store) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Append durably records one event: one marshaled line, rotating and
// pruning as configured. An I/O failure drops the event (counted, and
// surfaced by Dropped) rather than failing the job that emitted it —
// telemetry must never take the service down with it.
func (s *Store) Append(ev *SolveEvent) error {
	if s == nil || ev == nil {
		return nil
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("telemetry: marshal event: %w", err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.dropped++
		return fmt.Errorf("telemetry: store closed")
	}
	if s.size > 0 && s.size+int64(len(line)) > s.maxSeg {
		if err := s.rotateLocked(); err != nil {
			s.dropped++
			return err
		}
	}
	n, err := s.f.Write(line)
	s.size += int64(n)
	if err != nil {
		s.dropped++
		return fmt.Errorf("telemetry: append: %w", err)
	}
	return nil
}

// rotateLocked seals the active segment, starts the next one, and
// prunes the oldest beyond the retention bound.
func (s *Store) rotateLocked() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("telemetry: seal segment: %w", err)
	}
	s.seq++
	if err := s.openActive(); err != nil {
		return err
	}
	segs, err := s.segments()
	if err != nil {
		return err
	}
	for len(segs) > s.maxSegs {
		if err := os.Remove(s.segPath(segs[0])); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("telemetry: prune segment: %w", err)
		}
		segs = segs[1:]
	}
	return nil
}

// Replay streams every stored event, oldest first, to fn. Lines that
// fail to parse (a torn tail from a crash the recovery pass could not
// see, manual edits) are skipped and counted in the returned skip
// count. fn returning an error stops the replay.
func (s *Store) Replay(fn func(*SolveEvent) error) (replayed, skipped int, err error) {
	if s == nil {
		return 0, 0, nil
	}
	s.mu.Lock()
	segs, segErr := s.segments()
	s.mu.Unlock()
	if segErr != nil {
		return 0, 0, segErr
	}
	for _, n := range segs {
		f, err := os.Open(s.segPath(n))
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between listing and open
			}
			return replayed, skipped, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var ev SolveEvent
			if json.Unmarshal(sc.Bytes(), &ev) != nil {
				skipped++
				continue
			}
			if err := fn(&ev); err != nil {
				f.Close()
				return replayed, skipped, err
			}
			replayed++
		}
		scanErr := sc.Err()
		f.Close()
		if scanErr != nil {
			return replayed, skipped, scanErr
		}
	}
	return replayed, skipped, nil
}

// Close seals the active segment. Appends after Close are dropped.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}
