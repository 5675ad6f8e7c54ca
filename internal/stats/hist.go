package stats

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// histSub is the linear sub-bucket count per power-of-two segment: 32
// sub-buckets give ≤ ~3.1% relative quantile error at any magnitude,
// HDR-histogram style, in a fixed 15KB footprint with O(1) recording —
// no per-sample storage, so a loadtest can record millions of latencies
// without perturbing the system it measures.
const (
	histSub     = 32
	histBuckets = (64 - 5) * histSub
)

// Hist is a log-linear (HDR-style) histogram of nanosecond latencies.
// Values bucket by power-of-two magnitude with histSub linear sub-buckets
// per segment. The zero value is ready to use, and every method is safe
// for concurrent use: Record is one atomic bucket add plus a max check,
// with no lock and no allocation.
type Hist struct {
	// counts is 15 KB: loops index it in place, since ranging over it by
	// value copies the whole array onto the caller's stack.
	counts [histBuckets]atomic.Int64
	max    atomic.Int64
}

// histIndex maps a value to its bucket: segment k−4 (k = bit length − 1)
// with linear sub-bucket (v >> (k−5)) & 31. Values < histSub land in
// segment 0 exactly, and the mapping is continuous at segment borders
// (for v in [32,64) it is v itself).
func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // k ≥ 5
	return (k-4)*histSub + int((v>>(k-5))&(histSub-1))
}

// Record folds one latency (in nanoseconds; negatives clamp to 0) in. The
// max is raised before the bucket count lands, so a Take that sees the
// count sees a max at least as large.
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.raiseMax(ns)
	h.counts[min(histIndex(ns), histBuckets-1)].Add(1)
}

// raiseMax lifts h.max to at least v.
func (h *Hist) raiseMax(v int64) {
	for m := h.max.Load(); v > m; m = h.max.Load() {
		if h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// RecordSince is Record(now − t0) for a time.Time start.
func (h *Hist) RecordSince(t0 time.Time) { h.Record(time.Since(t0).Nanoseconds()) }

// Take moves h's samples into dst, replacing what dst held, and leaves h
// with none. Each bucket is swapped out atomically, so a sample recorded
// concurrently lands in exactly one Take. The max is not reset: dst's max
// is h's all-time max, which bounds every sample taken (see Record), so
// dst's percentiles stay within their buckets.
func (h *Hist) Take(dst *Hist) {
	for i := range h.counts {
		var c int64
		if h.counts[i].Load() != 0 { // most buckets are empty; a load is cheaper than a swap
			c = h.counts[i].Swap(0)
		}
		dst.counts[i].Store(c)
	}
	dst.max.Store(h.max.Load())
}

// Max returns the largest sample recorded since h was made (Take does not
// reset it).
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// count returns the number of samples recorded.
func (h *Hist) count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// bucketValue returns the representative (midpoint) value of bucket i.
func bucketValue(i int) int64 {
	seg := i / histSub
	sub := int64(i % histSub)
	if seg == 0 {
		return sub
	}
	step := int64(1) << (seg - 1)
	return (histSub+sub)<<(seg-1) + step/2
}

// Percentile returns the approximate p-quantile (p in [0,1]), or 0 when
// no sample has been recorded.
func (h *Hist) Percentile(p float64) time.Duration {
	n := h.count()
	if n == 0 {
		return 0
	}
	p = min(max(p, 0), 1)
	rank := int64(p * float64(n-1))
	m := h.max.Load()
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			return time.Duration(min(bucketValue(i), m))
		}
	}
	return time.Duration(m)
}

// String formats the standard percentile line.
func (h *Hist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", h.count())
	for _, pq := range []struct {
		label string
		p     float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}} {
		fmt.Fprintf(&b, " %s=%v", pq.label, h.Percentile(pq.p).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, " max=%v", h.Max().Round(time.Microsecond))
	return b.String()
}
