package telemetry

import (
	"math"
	"sort"
)

// Sketch is a streaming quantile sketch with a relative-error guarantee
// (the DDSketch construction): values are counted in logarithmically
// spaced buckets, index = ceil(log_gamma(v)) with gamma = (1+α)/(1-α),
// so any quantile estimate is within α relative error of the exact
// rank-q value, independent of the distribution and the stream length.
// Memory is O(log(max/min)/α) — tens of buckets for solve times that
// span milliseconds to minutes at α = 2%.
//
// The zero value is not usable; construct with NewSketch. A nil *Sketch
// is a safe no-op for Add and returns zeros from every accessor, so
// aggregation code never branches on presence.
type Sketch struct {
	alpha  float64
	gamma  float64
	logG   float64
	counts map[int]int64 // bucket index -> count, values > 0
	zeros  int64         // values <= 0
	count  int64
	sum    float64
	min    float64
	max    float64
}

// DefaultAccuracy is the relative error α used when a caller passes a
// non-positive accuracy: 2%, i.e. p99 = 1000ms may be reported anywhere
// in [980ms, 1020ms].
const DefaultAccuracy = 0.02

// NewSketch returns an empty sketch with relative accuracy alpha
// (0 < alpha < 1; out-of-range values fall back to DefaultAccuracy).
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultAccuracy
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:  alpha,
		gamma:  gamma,
		logG:   math.Log(gamma),
		counts: make(map[int]int64),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Alpha returns the sketch's relative accuracy.
func (s *Sketch) Alpha() float64 {
	if s == nil {
		return 0
	}
	return s.alpha
}

// Add records one value. Non-positive values are counted in a dedicated
// zero bucket (they have no meaningful relative error) and report as 0
// from Quantile. NaN is dropped.
func (s *Sketch) Add(v float64) {
	if s == nil || math.IsNaN(v) {
		return
	}
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if v <= 0 {
		s.zeros++
	} else {
		s.counts[s.bucket(v)]++
	}
	s.count++
	s.sum += v
}

func (s *Sketch) bucket(v float64) int {
	return int(math.Ceil(math.Log(v) / s.logG))
}

// value maps a bucket index back to its midpoint estimate
// 2γ^i/(γ+1), the point within (γ^(i-1), γ^i] with worst-case relative
// error α against every value the bucket can hold.
func (s *Sketch) value(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Quantile returns an estimate of the q-th quantile (0 ≤ q ≤ 1) within
// α relative error of the exact rank-⌊q·(n-1)⌋ order statistic. Zero
// when the sketch is empty.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.count-1)) // 0-based target rank
	if rank < s.zeros {
		return 0
	}
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	cum := s.zeros
	for _, k := range keys {
		cum += s.counts[k]
		if cum > rank {
			v := s.value(k)
			// Clamp to the observed range: the extreme buckets' midpoints
			// can overshoot the true min/max, which are known exactly.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// Merge folds other into s (s keeps its own accuracy; merging sketches
// of different γ is rejected as a no-op because their buckets are not
// commensurable — the aggregator only ever merges same-α sketches).
func (s *Sketch) Merge(other *Sketch) {
	if s == nil || other == nil || other.count == 0 || other.gamma != s.gamma {
		return
	}
	for k, c := range other.counts {
		s.counts[k] += c
	}
	s.zeros += other.zeros
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Count returns the number of recorded values.
func (s *Sketch) Count() int64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Sum returns the sum of recorded values.
func (s *Sketch) Sum() float64 {
	if s == nil {
		return 0
	}
	return s.sum
}

// Mean returns the exact mean of recorded values (sum and count are
// tracked exactly; only quantiles are approximate).
func (s *Sketch) Mean() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Max returns the largest recorded value (exact), 0 when empty.
func (s *Sketch) Max() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.max
}
