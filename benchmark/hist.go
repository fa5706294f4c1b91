package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a log-bucketed latency histogram (64 linear sub-buckets per power
// of two, ~1.6 % resolution) whose quantiles interpolate inside the bucket.
// internal/loadgen.Histogram reports a bucket's upper bound instead, so two
// runs with slightly different latencies print the identical number; a
// benchmark that is compared run against run needs the value as measured.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Values are clamped below 2^40 ns (~18 min), far above any latency here.
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	msb := bits.Len64(u) - 1
	return (msb-histSubBits+1)<<histSubBits + int(u>>uint(msb-histSubBits)) - histSub
}

// histBounds returns the half-open value range [lo, hi) of a bucket.
func histBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	msb := idx>>histSubBits + histSubBits - 1
	width := uint64(1) << uint(msb-histSubBits)
	l := uint64(1)<<uint(msb) + uint64(idx&(histSub-1))*width
	return float64(l), float64(l + width)
}

func (h *hist) record(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// percentile returns the q-quantile of raw samples (nearest rank); xs is
// reordered. Used for the replay samples, which are small enough to keep.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[int(q*float64(len(xs)-1))]
}
