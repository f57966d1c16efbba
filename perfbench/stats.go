package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the nearest-rank q-quantile of xs (0 for an empty
// slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tailQuantile picks the highest of the p50/p90/p99/p99.9 quantiles that
// still leaves at least ten of n samples beyond it, so a reported tail
// is never read off a handful of points. It returns 0 when even the
// median has fewer than ten samples above it (n < 20).
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// interval is a closed-open time span [start, end).
type interval struct{ start, end time.Time }

// covered returns how much of parent the union of children covers.
// Children are clipped to parent first, so overlapping and straddling
// spans are each counted once.
func covered(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		s, e := c.start, c.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = c
		case c.end.After(cur.end):
			cur.end = c.end
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover: the time the layer itself spent, outside any simulation.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - covered(parent, children)
}
