package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between order statistics; vals need not be sorted and is
// left untouched. An empty input yields NaN.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// quartiles returns the first quartile, median and third quartile.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	if len(vals) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentileSorted(s, 25), percentileSorted(s, 50), percentileSorted(s, 75)
}

// segmentStats splits the timed region into k equal-count segments of
// consecutive dispatches and returns each segment's steps per second and
// its median and 95th-percentile per-step milliseconds. The end-to-end
// metrics are medians over the segments, so a burst of host noise that
// spoils one or two segments does not move them, and the spread inside one
// run is visible without a second run. durs are per-dispatch seconds; every
// dispatch advances w steps.
func segmentStats(durs []float64, w, k int) (rates, p50s, p95s []float64) {
	if k > len(durs) {
		k = len(durs)
	}
	for s := 0; s < k; s++ {
		seg := durs[s*len(durs)/k : (s+1)*len(durs)/k]
		var t float64
		for _, d := range seg {
			t += d
		}
		ms := perStepMs(seg, w)
		rates = append(rates, float64(len(seg)*w)/t)
		p50s = append(p50s, percentile(ms, 50))
		p95s = append(p95s, percentile(ms, 95))
	}
	return rates, p50s, p95s
}

// iqrShare is the interquartile range as a share of the median — the
// spread measure the benchmark contract uses.
func iqrShare(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
