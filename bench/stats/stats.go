// Package stats holds the benchmark's order statistics: the percentile
// picker for latency samples and the median/quartile summary every metric
// is reduced to across windows and across runs.
package stats

import (
	"math"
	"sort"
)

// tails are the percentiles the harness reports, lowest first, in
// per-mille so that the sample arithmetic below is exact.
var tails = []int{500, 900, 990, 999}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// TopPercentile returns the highest of p50/p90/p99/p99.9 that still has at
// least ten of n samples beyond it, or 0 when even the median does not
// (n < 20).
func TopPercentile(n int) float64 {
	top := 0.0
	for _, pm := range tails {
		if n*(1000-pm) >= minBeyond*1000 {
			top = float64(pm) / 10
		}
	}
	return top
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, 0 for an empty one.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // 99.9 % of 1000 is 999, not 999.0000000001
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default "exclusive"
// method), so a spread computed here equals the one the acceptance driver
// computes from the same values. One value is its own three quartiles; no
// values give zeros.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return values[0], values[0], values[0]
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the middle value (mean of the two middle values for an
// even count), 0 for no values.
func Median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// Spread returns the inter-quartile distance as a share of the median —
// the noise figure a bound is compared with. 0 when the median is 0.
func Spread(values []float64) float64 {
	q1, _, q3 := Quartiles(values)
	med := Median(values)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// Worsening returns by what share of base the value got worse: positive
// when a higher-is-better metric fell or a lower-is-better metric rose.
func Worsening(base, value float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherIsBetter {
		return (base - value) / base
	}
	return (value - base) / base
}
