package main

import (
	"math"
	"testing"
	"time"
)

// TestSpeedClockScale pins the scaling rule: per kernel, the mean over
// the samples within calWindow of the operation, plus the nearest
// sample on each side however far away it is, weighted by the bursts or
// round trips behind each.
func TestSpeedClockScale(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	sample := func(s, compute float64, bursts int, trip float64) calSample {
		return calSample{at: at(s), ms: [2]float64{compute, trip}, n: [2]int{bursts, calRoundTrips}}
	}
	c := &speedClock{samples: []calSample{
		sample(0, 100, 1, 100), // outside every window below
		sample(10, 2, 3, 0.02),
		sample(11, 4, 1, 0.04),
		sample(30, 8, 4, 0.03),
	}}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }

	// An operation from 11.5 s to 12 s: the samples at 10 s and 11 s lie
	// within calWindow before it; the one at 30 s is the first after.
	want := calNominalMs[computeKernel] / ((2*3 + 4*1 + 8*4) / 8.0)
	if got := c.scale(computeKernel, at(11.5), at(12)); !near(got, want) {
		t.Errorf("compute scale = %g, want %g", got, want)
	}
	want = calNominalMs[roundTripKernel] / ((0.02 + 0.04 + 0.03) / 3)
	if got := c.scale(roundTripKernel, at(11.5), at(12)); !near(got, want) {
		t.Errorf("round-trip scale = %g, want %g", got, want)
	}
	// An operation from 20 s to 25 s reaches no sample within calWindow:
	// the last before (11 s) and the first after (30 s) scale it.
	want = calNominalMs[computeKernel] / ((4*1 + 8*4) / 5.0)
	if got := c.scale(computeKernel, at(20), at(25)); !near(got, want) {
		t.Errorf("compute scale = %g, want %g", got, want)
	}
	var nilClock *speedClock
	nilClock.tick()
	nilClock.sample()
	nilClock.close()
	if got := nilClock.scale(computeKernel, at(0), at(1)); got != 1 {
		t.Errorf("nil clock scale = %g, want 1", got)
	}
}

// TestSpeedClockSample runs the kernels once and checks a sample holds
// both.
func TestSpeedClockSample(t *testing.T) {
	c := newSpeedClock()
	defer c.close()
	c.tick()
	c.tick() // within calEvery of the first: no second sample
	if len(c.samples) != 1 {
		t.Fatalf("%d samples, want 1", len(c.samples))
	}
	s := c.samples[0]
	if s.n[computeKernel] < calMinBursts || s.n[roundTripKernel] != calRoundTrips {
		t.Errorf("sample ran %d bursts and %d round trips", s.n[computeKernel], s.n[roundTripKernel])
	}
	if s.ms[computeKernel] <= 0 || s.ms[roundTripKernel] <= 0 {
		t.Errorf("sample times %v", s.ms)
	}
}
