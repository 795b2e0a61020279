package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25}, {99, 3.97},
	} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSummarizeTailSupport(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	s := summarize(xs)
	if s.N != 2000 || s.P50 != 1000.5 {
		t.Errorf("summary = %+v, want N 2000 and p50 1000.5", s)
	}
	if s.Beyond99 != 20 {
		t.Errorf("%d samples beyond p99 %.2f, want 20", s.Beyond99, s.P99)
	}
}

func TestWindowedTakesMedianOfWindows(t *testing.T) {
	ws := []latencySummary{
		{N: 1000, P50: 3, P99: 6, Beyond99: 10},
		{N: 1200, P50: 3.2, P99: 30, Beyond99: 12}, // a window hit by a stall burst
		{N: 1100, P50: 3.1, P99: 7, Beyond99: 11},
	}
	got := windowed(ws)
	if got.N != 3300 || got.P50 != 3.1 || got.P99 != 7 || got.Beyond99 != 10 {
		t.Errorf("windowed = %+v, want N 3300, p50 3.1, p99 7, beyond 10", got)
	}
	if w := windowed(nil); !math.IsNaN(w.P99) {
		t.Errorf("no windows should give NaN percentiles, got %+v", w)
	}
}
