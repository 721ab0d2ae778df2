package main

import (
	"slices"
	"sort"
)

// median returns the middle of v (mean of the two middle values for an
// even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) does (the default "exclusive"
// method), which is what the driver uses to judge run-to-run spread.
// It needs at least two values; fewer give (0, 0).
func quartiles(v []float64) (q1, q3 float64) {
	m := len(v)
	if m < 2 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of v as a share of its median: the
// quantity a metric's bound is compared against.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	s := (q3 - q1) / med
	if s < 0 {
		s = -s
	}
	return s
}

// quietWindows is how many of a run's windows a timing is read from.
const quietWindows = 3

// quietMean is the mean of the quietWindows best values of v, the
// per-window values of one timing: the highest if higher is better, else
// the lowest. On a shared host a window in which a neighbour took the
// core, the cache or the memory bus reads slow, never fast, so the best
// windows are the ones that measure the program; three of them, so that
// one lucky window does not speak for the run. An empty v gives 0.
func quietMean(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	s = s[:min(quietWindows, len(s))]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailLadder lists the percentiles the benchmark reports, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// supportedPercentile returns the highest percentile of tailLadder that
// has at least ten of n samples beyond it (the choosing-metrics rule
// for tails), and false when even the median does not.
func supportedPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the p-th percentile (nearest rank) of sorted, an
// ascending slice of latencies in nanoseconds. A percentile the sample
// cannot support is lowered to the highest one it can; used reports the
// percentile actually taken. An empty slice gives (0, 0).
func percentile(sorted []int64, p float64) (ns int64, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if max, ok := supportedPercentile(n); !ok {
		p = 50
	} else if p > max {
		p = max
	}
	rank := int(float64(n)*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], p
}

// medianNS is the median of a latency sample, in nanoseconds, as a
// float (0 when empty). ns is sorted in place.
func medianNS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	v, _ := percentile(ns, 50)
	return float64(v)
}
