package main

import (
	"math"
	"sort"
	"time"
)

// tailLevels are the tail percentiles a latency metric may report, highest
// first. p99 is the ceiling: above it a run's sample count (and so the
// percentile reported) would vary with throughput.
var tailLevels = []float64{99, 95, 90, 75, 50}

// tailLevel picks the highest percentile in tailLevels that leaves at least
// ten samples beyond it, so a tail figure never rests on a handful of
// outliers. It returns 0 when even the median has fewer than ten beyond.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (mean of the middle two for even counts)
// without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// interval is a half-open span of wall time [start, end).
type interval struct{ start, end time.Time }

// unionWithin returns the total time covered by ivs after clipping each to
// [lo, hi). Overlapping intervals — parallel replica calls of one request —
// count once, so the result never exceeds hi-lo.
func unionWithin(ivs []interval, lo, hi time.Time) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(lo) {
			iv.start = lo
		}
		if iv.end.After(hi) {
			iv.end = hi
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
