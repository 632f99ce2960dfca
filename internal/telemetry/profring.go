package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// RingConfig sizes the continuous CPU-profiling ring (see ProfRing).
type RingConfig struct {
	// Dir is where the rolling captures land, one cpu-<seq>.pprof per
	// window; Dir/slow receives copies of windows that covered a marked
	// slow solve. Required.
	Dir string
	// Window is the length of one capture (default 30s).
	Window time.Duration
	// Keep bounds the rolling captures kept on disk; the oldest are
	// pruned after each window (default 8). Slow copies are not pruned.
	Keep int
	// Logger receives capture failures (may be nil).
	Logger *slog.Logger
}

func (c RingConfig) withDefaults() RingConfig {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.Keep < 1 {
		c.Keep = 8
	}
	return c
}

// ProfRing is the daemon's continuous profiler: a background goroutine
// that captures fixed-window CPU profiles back to back and keeps the
// newest Keep of them on disk, so "what was the process doing when job
// X was slow?" has an answer after the fact without anyone having run
// pprof by hand. Mark links a window to a slow solve: the capture
// covering the mark is copied to Dir/slow under the solve's name when
// the window closes.
//
// The runtime allows one CPU profile at a time process-wide; if
// StartCPUProfile fails (e.g. an operator-driven net/http/pprof capture
// is running), the ring logs once and disables itself rather than
// fighting for the profiler. All methods are nil-safe.
type ProfRing struct {
	cfg RingConfig

	mu      sync.Mutex
	seq     int
	pending []string // marks to copy out when the current window closes

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartProfRing creates the capture directory and starts the ring's
// background capture loop.
func StartProfRing(cfg RingConfig) (*ProfRing, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("telemetry: RingConfig.Dir is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	r := &ProfRing{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go r.loop()
	return r, nil
}

// Dir returns the ring's capture directory ("" on a nil ring).
func (r *ProfRing) Dir() string {
	if r == nil {
		return ""
	}
	return r.cfg.Dir
}

// Mark flags the capture window currently in flight as covering the
// named slow solve; when the window closes its profile is copied to
// Dir/slow/cpu-<seq>-<name>.pprof. Nil-safe.
func (r *ProfRing) Mark(name string) {
	if r == nil || name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending = append(r.pending, sanitizeMark(name))
}

// Close stops the capture loop and waits for the in-flight window to
// finish writing. Nil-safe and idempotent.
func (r *ProfRing) Close() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *ProfRing) loop() {
	defer close(r.done)
	for r.capture() {
	}
}

// capture runs one profiling window end to end and reports whether the
// loop should continue (false on stop or on a disabling error).
func (r *ProfRing) capture() bool {
	select {
	case <-r.stop:
		return false
	default:
	}
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	path := filepath.Join(r.cfg.Dir, fmt.Sprintf("cpu-%06d.pprof", seq))
	f, err := os.Create(path)
	if err != nil {
		r.fail(err)
		return false
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		r.fail(err)
		return false
	}
	stopped := false
	select {
	case <-r.stop:
		stopped = true
	case <-time.After(r.cfg.Window):
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		r.fail(err)
		return false
	}
	r.finish(seq, path)
	return !stopped
}

// finish copies the closed window out for any marks it covered, then
// prunes the ring to Keep captures.
func (r *ProfRing) finish(seq int, path string) {
	r.mu.Lock()
	marks := r.pending
	r.pending = nil
	r.mu.Unlock()
	for _, name := range marks {
		r.copySlow(seq, path, name)
	}
	r.prune()
}

func (r *ProfRing) copySlow(seq int, path, name string) {
	slowDir := filepath.Join(r.cfg.Dir, "slow")
	if err := os.MkdirAll(slowDir, 0o755); err != nil {
		r.warn(err)
		return
	}
	src, err := os.Open(path)
	if err != nil {
		r.warn(err)
		return
	}
	defer src.Close()
	dstPath := filepath.Join(slowDir, fmt.Sprintf("cpu-%06d-%s.pprof", seq, name))
	dst, err := os.Create(dstPath)
	if err != nil {
		r.warn(err)
		return
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		os.Remove(dstPath)
		r.warn(err)
		return
	}
	if err := dst.Close(); err != nil {
		r.warn(err)
	}
}

// prune keeps the newest Keep rolling captures. Sequence numbers are
// zero-padded, so lexical order is capture order.
func (r *ProfRing) prune() {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "cpu-") && strings.HasSuffix(n, ".pprof") {
			names = append(names, n)
		}
	}
	if len(names) <= r.cfg.Keep {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-r.cfg.Keep] {
		os.Remove(filepath.Join(r.cfg.Dir, n))
	}
}

// fail logs a disabling error; the capture loop exits after it.
func (r *ProfRing) fail(err error) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Warn("profile ring disabled", slog.String("error", err.Error()))
	}
}

func (r *ProfRing) warn(err error) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Warn("profile ring slow-copy failed", slog.String("error", err.Error()))
	}
}

// sanitizeMark keeps mark-derived filenames flat and portable.
func sanitizeMark(name string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			return c
		default:
			return '_'
		}
	}, name)
}
