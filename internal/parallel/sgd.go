package parallel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Trace records loss versus wall-clock during a parallel optimization run
// — the convergence-per-second series experiment E10 compares across the
// four computation models.
type Trace struct {
	Model   SyncModel
	Workers int
	Seconds []float64
	Loss    []float64
}

// Final returns the last recorded loss.
func (t *Trace) Final() float64 {
	if len(t.Loss) == 0 {
		return math.NaN()
	}
	return t.Loss[len(t.Loss)-1]
}

// SGDProblem is L2-regularized linear least squares: the representative
// gradient-descent kernel (§III-A lists SGD among the fundamental parallel
// ML patterns).
type SGDProblem struct {
	X  *tensor.Matrix
	Y  []float64
	L2 float64
}

// NewRandomSGDProblem generates a synthetic well-conditioned regression
// problem with known planted weights.
func NewRandomSGDProblem(n, dim int, noise float64, rng *xrand.Rand) (*SGDProblem, []float64) {
	x := tensor.NewMatrix(n, dim)
	truth := make([]float64, dim)
	for j := range truth {
		truth[j] = rng.Range(-2, 2)
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y[i] = tensor.Dot(row, truth) + rng.Normal(0, noise)
	}
	return &SGDProblem{X: x, Y: y, L2: 1e-4}, truth
}

// Loss returns the mean squared error plus L2 penalty at w.
func (p *SGDProblem) Loss(w []float64) float64 {
	n := p.X.Rows
	s := 0.0
	for i := 0; i < n; i++ {
		r := tensor.Dot(p.X.Row(i), w) - p.Y[i]
		s += r * r
	}
	reg := 0.0
	for _, v := range w {
		reg += v * v
	}
	return s/float64(n) + p.L2*reg
}

// gradRange accumulates the gradient of the mean loss over rows [lo,hi)
// into out (scaled by 1/n of the FULL dataset so shard gradients sum to
// the global gradient).
func (p *SGDProblem) gradRange(w []float64, lo, hi int, out []float64) {
	n := float64(p.X.Rows)
	for i := lo; i < hi; i++ {
		row := p.X.Row(i)
		r := tensor.Dot(row, w) - p.Y[i]
		c := 2 * r / n
		for j, v := range row {
			out[j] += c * v
		}
	}
	for j, v := range w {
		out[j] += 2 * p.L2 * v / float64(hi-lo) * float64(hi-lo) / n
	}
}

// SGDConfig controls a parallel SGD run.
type SGDConfig struct {
	Workers int
	Epochs  int
	LR      float64
	// UseRing selects the ring allreduce (vs the naive central reducer)
	// for the Allreduce model.
	UseRing bool
	Seed    uint64
}

// RunSGD optimizes the problem under the chosen synchronization model and
// returns the convergence trace. All four models perform the same number
// of gradient evaluations per epoch; they differ purely in how model
// updates synchronize — which is exactly the comparison §III-A draws.
func RunSGD(p *SGDProblem, model SyncModel, cfg SGDConfig) (*Trace, error) {
	if cfg.Workers < 1 || cfg.Epochs < 1 {
		return nil, fmt.Errorf("parallel: invalid config %+v", cfg)
	}
	dim := p.X.Cols
	tr := &Trace{Model: model, Workers: cfg.Workers}
	start := time.Now()
	record := func(w []float64) {
		tr.Seconds = append(tr.Seconds, time.Since(start).Seconds())
		tr.Loss = append(tr.Loss, p.Loss(w))
	}
	shard := func(rank int) (int, int) {
		lo := rank * p.X.Rows / cfg.Workers
		hi := (rank + 1) * p.X.Rows / cfg.Workers
		return lo, hi
	}

	switch model {
	case Locking:
		w := make([]float64, dim)
		var mu sync.Mutex
		barrier := NewBarrier(cfg.Workers)
		var wg sync.WaitGroup
		for rank := 0; rank < cfg.Workers; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				lo, hi := shard(rank)
				grad := make([]float64, dim)
				local := make([]float64, dim)
				for e := 0; e < cfg.Epochs; e++ {
					mu.Lock()
					copy(local, w)
					mu.Unlock()
					for j := range grad {
						grad[j] = 0
					}
					p.gradRange(local, lo, hi, grad)
					mu.Lock()
					for j := range w {
						w[j] -= cfg.LR * grad[j]
					}
					mu.Unlock()
					barrier.Wait()
					if rank == 0 {
						mu.Lock()
						record(w)
						mu.Unlock()
					}
					barrier.Wait()
				}
			}(rank)
		}
		wg.Wait()

	case Rotation:
		// Model rotation: the parameter vector is split into Workers
		// blocks; in each sub-epoch worker r updates block
		// (r+t) mod Workers using its data shard, then blocks rotate.
		// Disjoint blocks need no locks; a barrier separates rotations.
		w := make([]float64, dim)
		barrier := NewBarrier(cfg.Workers)
		blockOf := func(b int) (int, int) {
			lo := b * dim / cfg.Workers
			hi := (b + 1) * dim / cfg.Workers
			return lo, hi
		}
		var wg sync.WaitGroup
		for rank := 0; rank < cfg.Workers; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				lo, hi := shard(rank)
				grad := make([]float64, dim)
				local := make([]float64, dim)
				for e := 0; e < cfg.Epochs; e++ {
					for t := 0; t < cfg.Workers; t++ {
						// Phase 1: snapshot the model (reads only).
						copy(local, w)
						barrier.Wait()
						// Phase 2: compute on the snapshot, write only the
						// owned block (disjoint across workers).
						bLo, bHi := blockOf((rank + t) % cfg.Workers)
						for j := range grad {
							grad[j] = 0
						}
						p.gradRange(local, lo, hi, grad)
						for j := bLo; j < bHi; j++ {
							w[j] -= cfg.LR * grad[j]
						}
						barrier.Wait()
					}
					if rank == 0 {
						record(w)
					}
					barrier.Wait()
				}
			}(rank)
		}
		wg.Wait()

	case Allreduce:
		// Bulk-synchronous data parallelism: shard gradients are summed by
		// the collective and every worker applies the identical update to
		// its own replica.
		var central *CentralAllreducer
		var ring *RingAllreducer
		if cfg.UseRing {
			ring = NewRingAllreducer(cfg.Workers)
		} else {
			central = NewCentralAllreducer(cfg.Workers, dim)
		}
		barrier := NewBarrier(cfg.Workers)
		replicas := make([][]float64, cfg.Workers)
		for r := range replicas {
			replicas[r] = make([]float64, dim)
		}
		var wg sync.WaitGroup
		for rank := 0; rank < cfg.Workers; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				lo, hi := shard(rank)
				w := replicas[rank]
				grad := make([]float64, dim)
				for e := 0; e < cfg.Epochs; e++ {
					for j := range grad {
						grad[j] = 0
					}
					p.gradRange(w, lo, hi, grad)
					if cfg.UseRing {
						ring.Allreduce(rank, grad)
					} else {
						central.Allreduce(grad)
					}
					for j := range w {
						w[j] -= cfg.LR * grad[j]
					}
					if rank == 0 {
						record(w)
					}
					barrier.Wait()
				}
			}(rank)
		}
		wg.Wait()
		// Invariant: all replicas identical (checked in tests).

	case Asynchronous:
		// Hogwild-style parameter server: atomic lock-free reads and CAS
		// updates; workers never wait for each other. Staleness trades
		// consistency for throughput.
		wBits := make([]uint64, dim)
		load := func(j int) float64 { return math.Float64frombits(atomic.LoadUint64(&wBits[j])) }
		add := func(j int, delta float64) {
			for {
				old := atomic.LoadUint64(&wBits[j])
				nw := math.Float64bits(math.Float64frombits(old) + delta)
				if atomic.CompareAndSwapUint64(&wBits[j], old, nw) {
					return
				}
			}
		}
		snapshot := func() []float64 {
			out := make([]float64, dim)
			for j := range out {
				out[j] = load(j)
			}
			return out
		}
		var done sync.WaitGroup
		for rank := 0; rank < cfg.Workers; rank++ {
			done.Add(1)
			go func(rank int) {
				defer done.Done()
				lo, hi := shard(rank)
				grad := make([]float64, dim)
				local := make([]float64, dim)
				for e := 0; e < cfg.Epochs; e++ {
					for j := range local {
						local[j] = load(j)
						grad[j] = 0
					}
					p.gradRange(local, lo, hi, grad)
					for j := range grad {
						if grad[j] != 0 {
							add(j, -cfg.LR*grad[j])
						}
					}
					if rank == 0 {
						record(snapshot())
					}
				}
			}(rank)
		}
		done.Wait()

	default:
		return nil, fmt.Errorf("parallel: unknown sync model %v", model)
	}
	return tr, nil
}
