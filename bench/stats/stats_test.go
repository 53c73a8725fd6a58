package stats

import (
	"math"
	"testing"
)

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := TopPercentile(c.n); got != c.want {
			t.Errorf("TopPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(p%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of nothing = %d, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := Quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianSpreadWorsening(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %g, want 2.5", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median = %g, want 3", got)
	}
	// quartiles 2.75 and 8.25 around a median of 5.5
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %g, want 1", got)
	}
	if got := Worsening(100, 90, true); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("a throughput drop of a tenth reads %g", got)
	}
	if got := Worsening(100, 90, false); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("a latency drop of a tenth reads %g", got)
	}
}
