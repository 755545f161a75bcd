package main

import (
	"math"
	"sort"
)

// numBlocks is how many equal, consecutive blocks a pass's ops are cut
// into. Every timing metric is the median over blocks of the block's own
// statistic, so one noisy-neighbour burst moves one block, not the metric.
const numBlocks = 5

// percentile returns the p-quantile (0 <= p <= 1) of xs, interpolating
// linearly between the two closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// blocks cuts xs, in order, into n consecutive blocks of equal length. The
// len(xs) mod n oldest samples are dropped, so the blocks stay equal.
func blocks(xs []float64, n int) [][]float64 {
	size := len(xs) / n
	if size == 0 {
		return [][]float64{xs}
	}
	xs = xs[len(xs)-size*n:]
	out := make([][]float64, n)
	for i := range out {
		out[i] = xs[i*size : (i+1)*size]
	}
	return out
}

// overBlocks applies stat to every block of xs and returns the median of
// the block values together with their relative spread, (max-min)/median:
// the run's own evidence of how far the metric can be trusted.
func overBlocks(xs []float64, stat func([]float64) float64) (value, spread float64) {
	var vals []float64
	for _, b := range blocks(xs, numBlocks) {
		vals = append(vals, stat(b))
	}
	value = median(vals)
	if value == 0 {
		return 0, 0
	}
	return value, (percentile(vals, 1) - percentile(vals, 0)) / math.Abs(value)
}
