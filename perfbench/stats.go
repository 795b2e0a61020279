package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of an ascending
// sample by linear interpolation between the closest ranks, the same
// rule as numpy's default and Python's statistics.quantiles(method=
// "inclusive"). An empty sample yields NaN.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the middle of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// beyond counts the samples strictly above v: the support behind a
// tail percentile (the benchmark asks for at least ten beyond p99).
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// latencySummary is the percentile view of one window's latencies.
type latencySummary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	P99      float64 `json:"p99"`
	Beyond99 int     `json:"beyond99"`
}

func summarize(samples []float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p99 := percentile(s, 99)
	return latencySummary{N: len(s), P50: percentile(s, 50), P99: p99, Beyond99: beyond(s, p99)}
}

// windowed reduces per-window latency summaries (one per measuring
// process or trserve boot) to the run's: each percentile is the median
// over windows, so a burst of host stalls inside one window moves the
// run's p99 far less than it moves a p99 over the pooled samples. N is
// the total sample count and Beyond99 the fewest samples beyond p99 in
// any window.
func windowed(ws []latencySummary) latencySummary {
	if len(ws) == 0 {
		return latencySummary{P50: math.NaN(), P99: math.NaN()}
	}
	out := latencySummary{Beyond99: ws[0].Beyond99}
	var p50, p99 []float64
	for _, w := range ws {
		out.N += w.N
		out.Beyond99 = min(out.Beyond99, w.Beyond99)
		p50 = append(p50, w.P50)
		p99 = append(p99, w.P99)
	}
	out.P50, out.P99 = median(p50), median(p99)
	return out
}
