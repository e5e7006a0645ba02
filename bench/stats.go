package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted: the smallest value with at least p·n values at or below it.
// An empty sample reports 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// reportable are the percentiles the bench prints, highest first.
var reportable = []float64{0.999, 0.99, 0.95, 0.90, 0.50}

// highestSupported returns the highest reportable percentile that has
// at least ten samples beyond it in a sample of n, or 0.5 when none
// has: a tail quantile resting on fewer than ten observations is one
// slow request, not a property of the system.
func highestSupported(n int) float64 {
	for _, p := range reportable {
		if float64(n)-math.Ceil(p*float64(n)) >= 10 {
			return p
		}
	}
	return 0.5
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// iqrShare is the run-to-run spread the acceptance rule uses: the
// distance between the first and third quartile as a share of the
// median. Fewer than two values have no spread.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	q1, q3 := quartiles(s)
	med := midMedian(s)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// midMedian is the conventional median (mean of the two middle values
// for even n), which is what the driver's statistics.median computes.
func midMedian(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), the
// exclusive method the driver applies to the ten runs of a workload.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(k int) float64 {
		n := len(sorted)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}
