package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a preallocated log-linear latency histogram over nanoseconds:
// 128 linear sub-buckets per power of two (0.8% resolution), so recording
// is two shifts and an increment and a run never grows a sample slice.
// Quantiles interpolate inside the bucket, which keeps a reported median
// from snapping between bucket edges run to run.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 2^40 ns is 18 minutes; anything slower lands in the last bucket.
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 - histSubBits
	idx := (exp+1)*histSub + int(ns>>uint(exp))&(histSub-1)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histLower is the smallest value that maps to bucket idx.
func histLower(idx int) float64 {
	if idx < histSub {
		return float64(idx)
	}
	exp := idx/histSub - 1
	return float64((int64(histSub) + int64(idx%histSub)) << uint(exp))
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histLower(i), histLower(i+1)
			if hi > float64(h.max) && float64(h.max) >= lo {
				hi = float64(h.max)
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// quantileOf returns the q-quantile of xs by linear interpolation (NaN when
// empty) without reordering the caller's slice.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := q * float64(len(s)-1)
	lo := int(at)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(at-float64(lo))
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quiet summarises one metric's per-slice values by the best decile of the
// slices: the 10th percentile when lower is better, the 90th when higher
// is. README.md, "How steady the numbers are", gives the measurements
// behind that choice: on a shared host, even with placement fixed (cpu.go),
// stretches of a run — sometimes most of it — take one and a half to several
// times as long as the rest, in wall time and in the servers' CPU time
// alike, and in such hours the median over slices moved up to twice as far
// from run to run as the best decile did. In a calm hour it is the other
// way round on the point workloads; the best decile has the better worst
// case. A change that costs the program time moves every slice, the quiet
// ones included. What the best decile cannot see is a stall the program
// causes in fewer than nine slices in ten; the median over the same slices
// is therefore printed beside each value, kept in the report, and checked
// by -compare.
// The second result says how thinly the quiet mode was sampled: the gap
// between the best decile and the best quartile, as a share of the value.
func quiet(xs []float64, better string) (value, thin float64) {
	q10, q25 := 0.10, 0.25
	if better == "higher" {
		q10, q25 = 0.90, 0.75
	}
	value = quantileOf(xs, q10)
	if value != 0 {
		thin = math.Abs(quantileOf(xs, q25)-value) / value
	}
	return value, thin
}

// spread is (max-min)/median of xs.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m != 0 {
		return (hi - lo) / m
	}
	return 0
}
