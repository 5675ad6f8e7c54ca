package main

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// hist is a log-linear histogram of nanosecond durations: 64 sub-buckets
// per power of two (bucket width ≤ 1.6 % of its lower edge), values
// below 64 ns exact. Quantiles interpolate inside the bucket, so a
// reported percentile is good to a fraction of a percent — well under
// the tightest regression bound in BENCHMARK.json. The benchmark carries
// its own histogram so that the stack's percentile code (slated to merge,
// ROADMAP item 2) can change without moving the yardstick.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 64
	histSubBits = 6
	// 2^41 ns ≈ 37 min tops the range; longer samples clamp to the last bucket.
	histBuckets = (41 - histSubBits + 1) * histSub
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	idx := (e-histSubBits+1)*histSub + int((uint64(ns)>>uint(e-histSubBits))&(histSub-1))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histEdge returns bucket idx's lower edge and width in ns.
func histEdge(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	e := idx/histSub + histSubBits - 1
	sub := idx % histSub
	w := uint64(1) << uint(e-histSubBits)
	return float64((histSub + uint64(sub)) * w), float64(w)
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile in ns (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, w := histEdge(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum = next
	}
	lo, w := histEdge(histBuckets - 1)
	return lo + w
}

// shareAbove returns the share of samples in buckets wholly above ns.
func (h *hist) shareAbove(ns int64) float64 {
	if h.n == 0 {
		return 0
	}
	var above uint64
	for i := histBucket(ns) + 1; i < histBuckets; i++ {
		above += uint64(h.counts[i])
	}
	return float64(above) / float64(h.n)
}

// sqErr accumulates Σ (answer − truth)² over n answer components.
type sqErr struct {
	sum float64
	n   int64
}

func (a *sqErr) add(b sqErr) { a.sum += b.sum; a.n += b.n }

func (a sqErr) rmse() float64 {
	if a.n == 0 {
		return 0
	}
	return math.Sqrt(a.sum / float64(a.n))
}

// windows cuts one measured segment into fixed-length slices and keeps,
// per slice, a latency histogram, the squared error of its answers and
// the process CPU time at its end. The windowed user-facing metrics
// (latency_p50_us, latency_p99_us, cpu_us_per_row) are the median over a
// run's windows of the window's own value: tail sources that are part of
// the system (gather-wait deadline, flush coalescing, refit interference,
// the input shift) occur in every window and stay, a single GC or
// noisy-neighbour hiccup lands in one window and does not. What the
// median filters — rare long stalls — slo_ok_share counts, pooled over
// the whole run.
type windows struct {
	start time.Time
	len   time.Duration
	rows  int // rows per latency sample: 1 per-row, 64 per batch call
	mu    sync.Mutex
	wins  []hist
	sq    []sqErr         // per window: squared error of the OK answers
	cpu0  time.Duration   // process CPU at start
	cpuAt []time.Duration // process CPU at each window's end
}

// newWindows tiles [start, start+total) with as many equal windows of at
// least target as fit (one when the segment is shorter than target, as
// in the smoke test).
func newWindows(start time.Time, total, target time.Duration, rowsPerSample int) *windows {
	n := int(total / target)
	if n < 1 {
		n = 1
	}
	length := total / time.Duration(n)
	return &windows{start: start, len: length, rows: rowsPerSample, wins: make([]hist, n), sq: make([]sqErr, n), cpuAt: make([]time.Duration, n), cpu0: cpuTime()}
}

// sampleCPU reads the process CPU clock at every window boundary until
// the last window has ended or stop closes. A millisecond of timer
// lateness against a window of hundreds is noise of a fraction of a
// percent in one window's CPU.
func (w *windows) sampleCPU(stop <-chan struct{}) {
	for i := range w.cpuAt {
		t := time.NewTimer(time.Until(w.start.Add(w.len * time.Duration(i+1))))
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
		}
		w.cpuAt[i] = cpuTime()
	}
}

// measure runs drive with the CPU sampler alongside and returns the wall
// and CPU time it took.
func (w *windows) measure(drive func()) (wall, cpu time.Duration) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		w.sampleCPU(stop)
	}()
	drive()
	wall = time.Since(w.start)
	close(stop)
	<-done
	return wall, w.cpuAt[len(w.cpuAt)-1] - w.cpu0
}

// index maps an instant to its window, clamping completions that land
// just past the end of the run into the last window.
func (w *windows) index(now time.Time) int {
	i := int(now.Sub(w.start) / w.len)
	if i < 0 {
		return 0
	}
	if i >= len(w.wins) {
		return len(w.wins) - 1
	}
	return i
}

// winRec is one goroutine's private recorder: samples go into a local
// histogram that is merged into the shared window only when the window
// changes, so recording costs no atomics and no shared cache lines.
type winRec struct {
	w   *windows
	cur hist
	sq  sqErr
	idx int
}

func (r *winRec) record(now time.Time, ns int64) {
	if i := r.w.index(now); i != r.idx {
		r.flush()
		r.idx = i
	}
	r.cur.add(ns)
}

func (r *winRec) flush() {
	if r.cur.n == 0 {
		return
	}
	r.w.mu.Lock()
	r.w.wins[r.idx].merge(&r.cur)
	r.w.sq[r.idx].add(r.sq)
	r.w.mu.Unlock()
	r.cur.reset()
	r.sq = sqErr{}
}

// winSummary is what a run's windows reduce to.
type winSummary struct {
	p50us       float64 // median over the windows of the window's p50
	p99us       float64 // median over the windows of the window's p99
	cpuUSPerRow float64 // median over the windows of the window's CPU per OK row
	rmse        float64 // RMSE of every OK answer of the run
	worstRMSE   float64 // the worst window's RMSE, printed only
	windows     int
	minSamples  uint64 // the smallest window's latency samples
	pooled      hist   // every latency sample of the run
}

// summarize reduces the windows of a run's measured segments.
func summarize(segments []*windows) winSummary {
	var s winSummary
	var p50s, p99s, cpus []float64
	var sq sqErr
	for _, w := range segments {
		prev := w.cpu0
		for i := range w.wins {
			h := &w.wins[i]
			s.pooled.merge(h)
			if s.windows == 0 || h.n < s.minSamples {
				s.minSamples = h.n
			}
			s.windows++
			p50s = append(p50s, h.quantile(0.50)/1e3)
			p99s = append(p99s, h.quantile(0.99)/1e3)
			cpus = append(cpus, ratio(float64(w.cpuAt[i]-prev)/1e3, float64(h.n)*float64(w.rows)))
			prev = w.cpuAt[i]
			sq.add(w.sq[i])
			s.worstRMSE = math.Max(s.worstRMSE, w.sq[i].rmse())
		}
	}
	s.p50us, s.p99us, s.cpuUSPerRow = median(p50s), median(p99s), median(cpus)
	s.rmse = sq.rmse()
	return s
}

// quantileOf is the q-quantile of xs, linearly interpolated.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }
