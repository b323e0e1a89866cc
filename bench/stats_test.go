package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7}, 5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The answers are Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %g, %g, %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := iqr([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5) {
		t.Errorf("iqr = %g, want 5.5", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so the rule must sort
	}
	return xs
}

// The reported percentile is the highest whole one with at least ten
// samples beyond its nearest-rank value.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     int
		value float64
		ok    bool
	}{
		{10, 0, 0, false}, // every rank leaves fewer than ten beyond
		{11, 9, 1, true},  // p10 would be rank 2, leaving nine
		{20, 50, 10, true},
		{100, 90, 90, true},
		{171, 94, 161, true},
		{1000, 99, 990, true},
	} {
		p, v, ok := tailPercentile(seq(tc.n), 10)
		if ok != tc.ok || (ok && (p != tc.p || v != tc.value)) {
			t.Errorf("n=%d: got p%d = %g (ok %v), want p%d = %g (ok %v)", tc.n, p, v, ok, tc.p, tc.value, tc.ok)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %g, want 4", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean = %g, want 4", got)
	}
}

// Ratios pair the two configurations within one pass: program 0's are
// 2, 3, 2 (median 2) and program 1's are 3, 2, 5 (median 3), so the
// slowdown is sqrt(6), not a ratio of medians.
func TestPairedSlowdown(t *testing.T) {
	eff := [][]float64{{2, 9}, {3, 8}, {4, 10}}
	base := [][]float64{{1, 3}, {1, 4}, {2, 2}}
	if got := pairedSlowdown(eff, base); !near(got, math.Sqrt(6)) {
		t.Errorf("pairedSlowdown = %g, want %g", got, math.Sqrt(6))
	}
}

// A pass whose kernels took 10, 30 and 20 ms on average took 20 ms, so
// its timings scale by calibRefS/0.02.
func TestLocalScale(t *testing.T) {
	calibs := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 20 * time.Millisecond}
	if got, want := localScale(calibs), calibRefS/0.02; !near(got, want) {
		t.Errorf("localScale = %g, want %g", got, want)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 103, 97, 100, 101, 99}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		want           string
	}{
		{"faster", parent, shift(parent, 0.8), true, improved},
		{"slower", parent, shift(parent, 1.3), true, worse},
		{"same", parent, parent, true, unchanged},
		{"slightly slower within bound", parent, shift(parent, 1.05), true, unchanged},
		{"higher is better", parent, shift(parent, 0.8), false, worse},
		{"too few pairs", parent[:5], shift(parent[:5], 0.8), true, unchanged},
		{"spread wider than bound", wide, shift(wide, 1.02), true, unresolved},
	} {
		if got := judge(tc.parent, tc.change, tc.lowerBetter, 0.1); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}
