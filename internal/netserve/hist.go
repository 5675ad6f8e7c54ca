package netserve

import (
	"fmt"
	"math/bits"
	"strings"
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
// per segment. The zero value is ready to use. Not safe for concurrent
// writers: give each worker its own and Merge.
type Hist struct {
	// counts is 15 KB: loops index it in place, since ranging over it by
	// value copies the whole array onto the caller's stack.
	counts [histBuckets]int64
	n      int64
	max    int64
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

// Record folds one latency (in nanoseconds; negatives clamp to 0) in.
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := histIndex(ns)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

// RecordSince is Record(now − t0) for a time.Time start.
func (h *Hist) RecordSince(t0 time.Time) { h.Record(time.Since(t0).Nanoseconds()) }

// Merge folds o's samples into h.
func (h *Hist) Merge(o *Hist) {
	for i := range o.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Max returns the largest recorded sample.
func (h *Hist) Max() time.Duration { return time.Duration(h.max) }

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

// Percentile returns the approximate p-quantile (p in [0,1]).
func (h *Hist) Percentile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p * float64(h.n-1))
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen > rank {
			v := bucketValue(i)
			if int64(time.Duration(v)) > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// String formats the standard percentile line.
func (h *Hist) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", h.n)
	for _, pq := range []struct {
		label string
		p     float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}} {
		fmt.Fprintf(&b, " %s=%v", pq.label, h.Percentile(pq.p).Round(time.Microsecond))
	}
	fmt.Fprintf(&b, " max=%v", h.Max().Round(time.Microsecond))
	return b.String()
}
