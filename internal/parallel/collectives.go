// Package parallel implements the parallel machine-learning computation
// models of §III-A. The paper categorizes parallel iterative ML algorithms
// into four synchronization patterns — (a) Locking, (b) Rotation, (c)
// Allreduce, (d) Asynchronous — and reports that optimized collective
// communication improves model update speed and convergence. This package
// provides those four drivers over goroutines and channels, two allreduce
// implementations (a naive lock-based reducer and a ring allreduce), and
// representative kernels from the paper's list: SGD and Gibbs sampling
// (Ising).
package parallel

import (
	"fmt"
	"sync"
)

// CentralAllreducer is the naive collective: every rank adds its vector
// into a shared buffer under a mutex and waits on a condition variable for
// the epoch to complete. Semantically an allreduce; the contended lock is
// the cost the optimized ring version removes.
type CentralAllreducer struct {
	P   int
	mu  sync.Mutex
	cv  *sync.Cond
	buf []float64
	cnt int
	gen int
}

// NewCentralAllreducer builds a reducer for p ranks and vectors of the
// given length.
func NewCentralAllreducer(p, length int) *CentralAllreducer {
	a := &CentralAllreducer{P: p, buf: make([]float64, length)}
	a.cv = sync.NewCond(&a.mu)
	return a
}

// Allreduce sums vec across all ranks; on return vec holds the global sum.
// All P ranks must call it once per round.
func (a *CentralAllreducer) Allreduce(vec []float64) {
	a.mu.Lock()
	gen := a.gen
	for i, v := range vec {
		a.buf[i] += v
	}
	a.cnt++
	if a.cnt == a.P {
		a.cnt = 0
		a.gen++
		a.cv.Broadcast()
	} else {
		for gen == a.gen {
			a.cv.Wait()
		}
	}
	copy(vec, a.buf)
	// Last rank to leave the epoch resets the buffer for the next one.
	a.mu.Unlock()
	a.exitBarrier()
}

// exitBarrier ensures the shared buffer is reset exactly once after all
// ranks have copied the result.
func (a *CentralAllreducer) exitBarrier() {
	a.mu.Lock()
	a.cnt++
	if a.cnt == a.P {
		a.cnt = 0
		for i := range a.buf {
			a.buf[i] = 0
		}
		a.gen++
		a.cv.Broadcast()
	} else {
		gen := a.gen
		for gen == a.gen {
			a.cv.Wait()
		}
	}
	a.mu.Unlock()
}

// RingAllreducer is the optimized collective: a reduce-scatter followed by
// an allgather around a ring of channels, the classic bandwidth-optimal
// allreduce. Each rank communicates only with its neighbors and the hot
// path holds no global lock.
type RingAllreducer struct {
	P     int
	chans []chan []float64
	// scratch holds three send buffers per rank (triple buffering): the
	// successful capacity-1 send at step t+2 proves the neighbor dequeued
	// step t+1, which in its sequential loop happens only after it
	// finished processing the step-t buffer — so overwriting that buffer
	// at step t+3 is safe. This removes all per-step allocations from the
	// hot path.
	scratch [][3][]float64
}

// NewRingAllreducer builds the ring for p ranks.
func NewRingAllreducer(p int) *RingAllreducer {
	r := &RingAllreducer{P: p, chans: make([]chan []float64, p), scratch: make([][3][]float64, p)}
	for i := range r.chans {
		r.chans[i] = make(chan []float64, 1)
	}
	return r
}

// Allreduce sums vec across ranks; all P ranks must call concurrently with
// their own rank id. On return vec holds the global sum on every rank.
func (r *RingAllreducer) Allreduce(rank int, vec []float64) {
	p := r.P
	if p == 1 {
		return
	}
	n := len(vec)
	// Segment boundaries.
	bounds := make([]int, p+1)
	for s := 0; s <= p; s++ {
		bounds[s] = s * n / p
	}
	seg := func(s int) []float64 {
		s = ((s % p) + p) % p
		return vec[bounds[s]:bounds[s+1]]
	}
	next := r.chans[(rank+1)%p]
	prev := r.chans[rank]
	// Per-rank double-buffered scratch, sized to the largest segment.
	maxSeg := bounds[1] - bounds[0]
	for s := 1; s < p; s++ {
		if w := bounds[s+1] - bounds[s]; w > maxSeg {
			maxSeg = w
		}
	}
	if len(r.scratch[rank][0]) < maxSeg {
		for b := 0; b < 3; b++ {
			r.scratch[rank][b] = make([]float64, maxSeg)
		}
	}
	send := func(step int, src []float64) {
		buf := r.scratch[rank][step%3][:len(src)]
		copy(buf, src)
		next <- buf
	}
	// Reduce-scatter: after p-1 steps, rank owns the fully reduced segment
	// (rank+1) mod p.
	for step := 0; step < p-1; step++ {
		send(step, seg(rank-step))
		recv := <-prev
		dst := seg(rank - step - 1)
		for i, v := range recv {
			dst[i] += v
		}
	}
	// Allgather: circulate the reduced segments.
	for step := 0; step < p-1; step++ {
		send(p-1+step, seg(rank+1-step))
		recv := <-prev
		dst := seg(rank - step)
		copy(dst, recv)
	}
}

// Barrier is a reusable P-party barrier.
type Barrier struct {
	p   int
	mu  sync.Mutex
	cv  *sync.Cond
	cnt int
	gen int
}

// NewBarrier builds a barrier for p parties.
func NewBarrier(p int) *Barrier {
	b := &Barrier{p: p}
	b.cv = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all p parties have arrived.
func (b *Barrier) Wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.cnt++
	if b.cnt == b.p {
		b.cnt = 0
		b.gen++
		b.cv.Broadcast()
		return
	}
	for gen == b.gen {
		b.cv.Wait()
	}
}

// SyncModel names the paper's four computation models.
type SyncModel int

// The four parallel model-synchronization patterns of §III-A.
const (
	Locking SyncModel = iota
	Rotation
	Allreduce
	Asynchronous
)

// String returns the model name as in the paper.
func (m SyncModel) String() string {
	switch m {
	case Locking:
		return "Locking"
	case Rotation:
		return "Rotation"
	case Allreduce:
		return "Allreduce"
	case Asynchronous:
		return "Asynchronous"
	default:
		return fmt.Sprintf("SyncModel(%d)", int(m))
	}
}

// AllModels lists the four patterns in paper order.
func AllModels() []SyncModel { return []SyncModel{Locking, Rotation, Allreduce, Asynchronous} }
