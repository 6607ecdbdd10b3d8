package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. With
// 1000 samples p99 is the 990th, leaving ten samples beyond it; p100 is the
// slowest sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// slowestMean returns the mean of the slowest share of xs (0 < share <= 1,
// at least one sample). Unlike a percentile it does not jump when the
// samples have a gap at the rank it would pick.
func slowestMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := max(1, int(math.Ceil(share*float64(len(s)))))
	var sum float64
	for _, x := range s[len(s)-k:] {
		sum += x
	}
	return sum / float64(k)
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile: the count the "at least ten samples beyond" rule checks.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
