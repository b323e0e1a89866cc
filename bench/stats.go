package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle two for an even
// count), or NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the benchmark's spread is judged. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// iqr returns the distance between the first and third quartile.
func iqr(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return q3 - q1
}

// tailPercentile returns the highest whole percentile p of xs that has at
// least beyond samples above it, and its nearest-rank value: with n
// samples, the p-th percentile is the ceil(p·n/100)-th smallest. ok is
// false when xs is too small for even the first percentile to qualify.
func tailPercentile(xs []float64, beyond int) (p int, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for p = 99; p >= 1; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-rank >= beyond {
			return p, s[rank-1], true
		}
	}
	return 0, math.NaN(), false
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// pairedSlowdown is the Fig. 8 ratio: for every program, the median over
// passes of its instrumented time divided by its uninstrumented time in
// the same pass, then the geometric mean over programs. eff[i][j] and
// base[i][j] are pass i, program j.
func pairedSlowdown(eff, base [][]float64) float64 {
	if len(eff) == 0 {
		return math.NaN()
	}
	perProg := make([]float64, len(eff[0]))
	for j := range perProg {
		ratios := make([]float64, len(eff))
		for i := range eff {
			ratios[i] = eff[i][j] / base[i][j]
		}
		perProg[j] = median(ratios)
	}
	return geomean(perProg)
}

// localScale returns the factor that turns the raw seconds of a pass
// into reference seconds: calibRefS over the mean time of the calibration
// kernels run during the pass. A timing in reference seconds is what it
// would read on a machine whose kernel takes exactly calibRefS, so
// changes in the machine's speed between and within runs cancel.
func localScale(calibs []time.Duration) float64 {
	var sum time.Duration
	for _, c := range calibs {
		sum += c
	}
	return calibRefS * float64(len(calibs)) / sum.Seconds()
}
