package main

import (
	"math"
	"slices"
)

func sortedCopy(values []float64) []float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return s
}

// percentile returns the nearest-rank q-quantile of ascending samples:
// the smallest sample with at least q of all samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), q), 1)-1]
}

// rank is the 1-based nearest-rank index of the q-quantile of n
// samples. The epsilon keeps 0.99*1000 from rounding up to 991.
func rank(n int, q float64) int {
	return min(int(math.Ceil(q*float64(n)-1e-9)), n)
}

// tailPercentile returns the highest of p99.9, p99, p90 and p50 that
// has at least ten samples beyond it, or 0 when none has: a tail
// percentile read from fewer samples than that is one outlier's value.
func tailPercentile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if n-rank(n, q) >= 10 {
			return q
		}
	}
	return 0
}

func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so calibration reads the same spread as any
// tool that judges the benchmark with it.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}

// regressed reports whether now is worse than base by more than bound,
// as a share of base, in the metric's bad direction.
func regressed(better string, bound, base, now float64) bool {
	worse := (now - base) / math.Abs(base)
	if better == "higher" {
		worse = -worse
	}
	return base != 0 && worse > bound
}
