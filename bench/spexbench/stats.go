package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample has no quantile: NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the percentiles a tail may be reported at, lowest first.
var tailLadder = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// tailQuantile is the reporting rule for a timing's tail: the highest
// percentile of tailLadder with at least ten of n samples beyond it. A
// sample too small for even the lowest rung gets the median (0.5).
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// beyond counts the samples of n that lie strictly above the q-quantile
// rank.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}
