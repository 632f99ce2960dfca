package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

// quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) computes them (its default
// "exclusive" method), so the spreads printed here match the ones the
// benchmark's acceptance rule is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// geomean returns the geometric mean of the positive values in v.
func geomean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailPercentile is the highest of the reported percentiles that still
// has at least ten samples beyond it in a sample of n, or 0 when even
// the 90th has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// pairWins counts the pairs in which the change reads strictly better
// than the parent; ties count for neither side.
func pairWins(parent, change []float64, higherBetter bool) int {
	wins := 0
	for i := range parent {
		if i >= len(change) {
			break
		}
		if higherBetter && change[i] > parent[i] || !higherBetter && change[i] < parent[i] {
			wins++
		}
	}
	return wins
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
