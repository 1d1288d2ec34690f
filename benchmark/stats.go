package main

import (
	"math"
	"slices"
)

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so a spread
// computed here is the spread the driver computes. Fewer than two values
// yield that value three times.
func quartiles(values []float64) (q1, q2, q3 float64) {
	if len(values) == 0 {
		return 0, 0, 0
	}
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*n)
		return (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := slices.Clone(values)
	slices.Sort(data)
	rank := int(math.Ceil(p / 100 * float64(len(data))))
	return data[min(max(rank, 1), len(data))-1]
}

// timing is the summary kept for every list of wall-clock samples.
type timing struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func summarize(samples []float64) timing {
	q1, q2, q3 := quartiles(samples)
	return timing{N: len(samples), P25: q1, P50: q2, P75: q3}
}

// ratio is a/b with 0 for an empty base, for metrics a workload never
// exercises.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
