package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation: when it completed (as an offset into the
// timed window), how long the caller waited for it, and whether its output
// was correct. A failed op has no meaningful latency; it enters every
// percentile as +Inf, so failures can only make a percentile worse.
type sample struct {
	done time.Duration
	lat  time.Duration
	ok   bool
}

// sliceOf says which of n slices of the window an offset into it falls in;
// what completes after the window's end belongs to the last slice.
func sliceOf(at, window time.Duration, n int) int {
	return min(max(int(int64(at)*int64(n)/int64(window)), 0), n-1)
}

// quantile returns the q-quantile (nearest rank) of sorted values, which
// must be non-empty.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle of values (mean of the two middles for an even
// count); NaN for none. The input is not modified.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of values the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so
// the spreads printed by -repeat are the ones the acceptance rule uses.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		h := p * float64(n+1)
		lo := int(math.Floor(h))
		lo = min(max(lo, 1), n-1)
		return s[lo-1] + (h-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}

// sliceStat is one metric computed per slice of the timed window.
type sliceStat struct {
	// perSlice holds the statistic of each slice in µs (+Inf for a slice
	// with a failed op at or below the percentile, or with no op at all).
	perSlice []float64
	samples  int
}

// value is the metric: the median over the slices. One slow slice (a
// compaction, a noisy neighbour) moves it little; a change that slows
// every slice moves it fully.
func (s sliceStat) value() float64 { return median(s.perSlice) }

// slicesFor says into how many slices (at most limit) n samples may be cut
// so that each slice still has about ten samples beyond its q-quantile: a
// percentile with fewer beyond it is mostly the luck of the draw. A
// low-rate stream's p99 therefore comes from fewer, longer slices, down to
// the whole window.
func slicesFor(n int, q float64, limit int) int {
	return min(max(int(float64(n)*(1-q)/10), 1), limit)
}

// slicePercentile cuts the window into slices by completion time and takes
// the q-quantile of each slice's latencies in µs.
func slicePercentile(samples []sample, window time.Duration, slices int, q float64) sliceStat {
	buckets := make([][]float64, slices)
	for _, sm := range samples {
		i := sliceOf(sm.done, window, slices)
		v := math.Inf(1)
		if sm.ok {
			v = float64(sm.lat) / float64(time.Microsecond)
		}
		buckets[i] = append(buckets[i], v)
	}
	st := sliceStat{perSlice: make([]float64, slices), samples: len(samples)}
	for i, b := range buckets {
		if len(b) == 0 {
			// Nothing completed for a whole slice: the system stalled.
			st.perSlice[i] = math.Inf(1)
			continue
		}
		sort.Float64s(b)
		st.perSlice[i] = quantile(b, q)
	}
	return st
}

// latencyP50 is the plain median latency of the correct samples in µs (for
// per-layer figures that are not sliced).
func latencyP50(samples []sample) float64 {
	var v []float64
	for _, sm := range samples {
		if sm.ok {
			v = append(v, float64(sm.lat)/float64(time.Microsecond))
		}
	}
	return median(v)
}

func durationsP50(ds []time.Duration, unit time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	return median(v)
}
