package main

// Wall-clock on a shared machine drifts with the machine's other
// tenants: one B4 flow, repeated for minutes on fixed code and input,
// had 10-second window medians 27 % apart, and in one two-hour stretch
// table1-small's times rose by half. Whole runs move with that drift,
// so the benchmark reports every time scaled to a reference machine
// speed. Between operations, never during one, it times two fixed
// calibration kernels:
//
//   - compute: a dense matrix-vector product and rank-1 update, the
//     shape of the LP's basis-inverse work, on two goroutines, as many
//     as RemapBoth's two arms. It scales the table flows, the solved
//     requests and set-up.
//   - round trip: an HTTP GET to a handler that writes two bytes, over
//     loopback. It scales the resubmits the service answers from its
//     cache, whose time is mostly such round trips and the wake-ups
//     between them, which the compute kernel does not track.
//
// An operation's wall-clock is multiplied by the kernel's nominal time
// over its time around the operation. The kernels are the benchmark's
// own code, so a change to the program cannot move them, and the
// matrices live outside the Go heap, so live_heap_mb does not see them.
// README.md ("Reference speed") has the measurements.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calKernel names a calibration kernel.
type calKernel int

const (
	computeKernel calKernel = iota
	roundTripKernel
)

const (
	calDim     = 320 // each goroutine's matrix is calDim x calDim float64s (800 KiB)
	calThreads = 2
	calIters   = 10 // kernel passes per burst, about 3 ms
	// A sample is the median of at least calMinBursts compute bursts,
	// run for at least calShare of the time since the previous sample
	// (a sample after a 15 s flow lasts 0.75 s, so it measures the
	// machine over more than an instant, and the program's own
	// after-work, such as its last collection cycle, falls below the
	// median), and of calRoundTrips round trips.
	calMinBursts  = 3
	calShare      = 0.05
	calRoundTrips = 20
	// calEvery is the most time that passes between samples while
	// operations run; longer operations get a sample on each side.
	calEvery = 250 * time.Millisecond
	// calWindow is how far before and after an operation the samples
	// that scale it reach. One short sample reads the machine of an
	// instant, which swings by a third; the machine's drift takes
	// seconds, so the samples of a few seconds average that away.
	calWindow = 2 * time.Second
)

// calNominalMs is each kernel's median sample on the machine the
// reference numbers in README.md come from: a scaled time is the time
// the operation would take there.
var calNominalMs = [2]float64{computeKernel: 3.3, roundTripKernel: 0.037}

var (
	calOnce sync.Once
	calMats [calThreads]*calMatrix
)

// calMatrix is one goroutine's compute-kernel state.
type calMatrix struct {
	a, x, y []float64
}

// offHeap returns n zeroed float64s in anonymous memory the Go runtime
// does not manage, or on the heap if the mapping fails.
func offHeap(n int) []float64 {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]float64, n)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

func calMatrices() [calThreads]*calMatrix {
	calOnce.Do(func() {
		for t := range calMats {
			m := &calMatrix{a: offHeap(calDim * calDim), x: offHeap(calDim), y: offHeap(calDim)}
			for i := range m.a {
				m.a[i] = float64(i%7) * 0.01
			}
			for i := range m.x {
				m.x[i] = 1
			}
			calMats[t] = m
		}
	})
	return calMats
}

// pass computes y = A x and applies the rank-1 update A -= 1e-9 y x^T.
// The update is small enough that A stays bounded over any run.
func (m *calMatrix) pass() {
	for i := 0; i < calDim; i++ {
		row := m.a[i*calDim : (i+1)*calDim]
		s := 0.0
		for j, v := range row {
			s += v * m.x[j]
		}
		m.y[i] = s
	}
	for i := 0; i < calDim; i++ {
		f := m.y[i] * 1e-9
		row := m.a[i*calDim : (i+1)*calDim]
		for j := range row {
			row[j] -= f * m.x[j]
		}
	}
}

// calBurst runs calIters passes on every compute goroutine at once and
// returns the wall-clock in ms.
func calBurst() float64 {
	mats := calMatrices()
	t := time.Now()
	var wg sync.WaitGroup
	for _, m := range mats {
		wg.Add(1)
		go func(m *calMatrix) {
			defer wg.Done()
			for i := 0; i < calIters; i++ {
				m.pass()
			}
		}(m)
	}
	wg.Wait()
	return ms(time.Since(t))
}

// calSample is one calibration sample: when it ended, and per kernel
// its median burst or round trip in ms and how many it ran.
type calSample struct {
	at time.Time
	ms [2]float64
	n  [2]int
}

// speedClock samples the calibration kernels between a run's operations
// and scales their wall-clock to the reference speed. A nil clock
// samples nothing and scales by 1.
type speedClock struct {
	samples []calSample
	echo    *httptest.Server // the round-trip kernel's handler
	client  *http.Client
}

// newSpeedClock starts the round-trip kernel's loopback server; close
// stops it.
func newSpeedClock() *speedClock {
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok"))
	}))
	return &speedClock{echo: echo, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *speedClock) close() {
	if c != nil {
		c.client.CloseIdleConnections()
		c.echo.Close()
	}
}

// roundTrip times one GET of the echo handler in ms; ok is false when it
// failed.
func (c *speedClock) roundTrip() (float64, bool) {
	t := time.Now()
	resp, err := c.client.Get(c.echo.URL)
	if err != nil {
		return 0, false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return ms(time.Since(t)), err == nil
}

// sample runs the compute kernel now, for calShare of the time since
// the previous sample and at least calMinBursts bursts, then
// calRoundTrips round trips, and records each kernel's median.
func (c *speedClock) sample() {
	if c == nil {
		return
	}
	var budget time.Duration
	if n := len(c.samples); n > 0 {
		budget = time.Duration(calShare * float64(time.Since(c.samples[n-1].at)))
	}
	var bursts, trips []float64
	for t := time.Now(); len(bursts) < calMinBursts || time.Since(t) < budget; {
		bursts = append(bursts, calBurst())
	}
	for i := 0; i < calRoundTrips; i++ {
		if d, ok := c.roundTrip(); ok {
			trips = append(trips, d)
		}
	}
	c.samples = append(c.samples, calSample{at: time.Now(),
		ms: [2]float64{median(bursts), median(trips)}, n: [2]int{len(bursts), len(trips)}})
}

// tick samples when calEvery has passed since the last sample. Call it
// between operations.
func (c *speedClock) tick() {
	if c != nil && (len(c.samples) == 0 || time.Since(c.samples[len(c.samples)-1].at) >= calEvery) {
		c.sample()
	}
}

// scale returns the factor that turns the wall-clock of an operation
// that ran from start to end into reference-speed time: kernel k's
// nominal time over its mean time around the operation, weighted by the
// bursts or round trips behind each sample, over the samples taken from
// calWindow before start to calWindow after end and always the last
// sample before it and the first after it.
func (c *speedClock) scale(k calKernel, start, end time.Time) float64 {
	if c == nil {
		return 1
	}
	lo, hi := start.Add(-calWindow), end.Add(calWindow)
	var sum, n float64
	for i, s := range c.samples {
		lastBefore := !s.at.After(start) && (i+1 == len(c.samples) || c.samples[i+1].at.After(start))
		firstAfter := !s.at.Before(end) && (i == 0 || c.samples[i-1].at.Before(end))
		if lastBefore || firstAfter || !s.at.Before(lo) && !s.at.After(hi) {
			sum += s.ms[k] * float64(s.n[k])
			n += float64(s.n[k])
		}
	}
	if n == 0 {
		return 1
	}
	return calNominalMs[k] / (sum / n)
}

// medianMs is kernel k's median sample over the run: the machine's
// speed as the run saw it.
func (c *speedClock) medianMs(k calKernel) float64 {
	if c == nil {
		return 0
	}
	v := make([]float64, len(c.samples))
	for i, s := range c.samples {
		v[i] = s.ms[k]
	}
	return median(v)
}
