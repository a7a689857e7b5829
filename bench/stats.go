package main

import (
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place). It returns 0 for no samples.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(float64(len(samples))*q + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median is the 0.5 nearest-rank percentile.
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// quartiles returns the first quartile, median and third quartile with
// the interpolation of Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), so spreads read the same here as in any
// script that checks a set of runs. A single value is its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// ratio is a/b, or 0 when b is 0 (no ops completed), so a failed run
// still prints valid JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usOf converts a duration to microseconds.
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
