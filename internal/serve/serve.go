// Package serve implements the adaptive micro-batch request coalescer:
// the serving front-end that makes many concurrent small queries as cheap
// per point as one large batch. Concurrent QueryRows bursts are gathered
// into micro-batches with a dual trigger — a batch fills to MaxBatch, or
// the gather stalls (no new arrivals) with maxDelay as the hard cap — and
// each batch runs once through the backend's amortized QueryBatchInto
// path, fanning results back to the blocked callers. A Query is a burst
// of one: there is no second, single-row path.
//
// Gathering is driven by the batch's first caller (the leader), which is
// blocked waiting for its own answer anyway: instead of sleeping on an
// OS timer (whose ~millisecond firing granularity would dwarf the
// microsecond gather windows), the leader yields its processor in a
// spin-and-recheck loop and dispatches as soon as arrivals stall. An
// EWMA of the observed arrival rate classifies sparse traffic, which
// bypasses gathering entirely — a lone query is dispatched immediately
// rather than taxed with a pointless wait.
//
// All per-batch state — the input matrix, the result rows, the dispatch
// bookkeeping — is recycled through one process-wide pool, so the
// steady-state query path performs zero heap allocations (QueryInto) and
// the coalescers of a multi-tenant fleet share their gather buffers
// instead of each warming a private set.
//
// This is the per-request → stream-oriented execution bridge the paper's
// serving story needs: the UQ-gated surrogate answers millions of
// independent lookups, and without coalescing every one of them pays the
// full per-pass dispatch cost that batching amortizes away.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Backend is the serving engine a Coalescer (and a fleet of them) drives.
// core.ShardedWrapper satisfies it natively, grouping each micro-batch's
// rows by shard so every shard sees one fused batch per dispatch.
type Backend interface {
	// QueryBatchInto answers every row of xs into res (len == xs.Rows),
	// overwriting each row's Y/Std in place when their capacity suffices,
	// so a steady-state dispatch loop reusing one res slice performs zero
	// heap allocations. Every row must be written (a batch-level error may
	// accompany valid rows).
	QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error
	// Dims returns the input and output dimensionality.
	Dims() (in, out int)
}

// Config tunes a Coalescer. The zero value selects the defaults.
type Config struct {
	// MaxBatch dispatches a batch as soon as it gathers this many
	// requests (default 64).
	MaxBatch int
}

// ewmaAlpha is the smoothing factor of the arrival-interval estimate in
// (0, 1]; larger adapts faster.
const ewmaAlpha = 0.2

// Gather bounds. maxDelay caps how long a batch may gather before
// dispatching whatever has arrived; it also anchors the sparse cutoff:
// when the arrival-rate estimate says even maxDelay could not fill a
// batch, queries dispatch immediately instead of waiting. stallSpins is
// how many consecutive leader yields without a new arrival count as a
// stalled gather: smaller dispatches sooner at lower concurrency, larger
// rides out scheduling jitter. Variables only so tests can reach them.
var (
	maxDelay   = 200 * time.Microsecond
	stallSpins = 4
)

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
}

// Result is one coalesced query's answer.
type Result struct {
	Y   []float64
	Src core.Source
	Std []float64 // non-nil only for surrogate answers
}

// Stats is a snapshot of coalescing effectiveness.
type Stats struct {
	Queries int64 // queries accepted
	Batches int64 // micro-batches dispatched
}

// MeanBatch returns the mean dispatched batch size.
func (s Stats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Queries) / float64(s.Batches)
}

// ErrClosed is returned by the query paths after Close.
var ErrClosed = errors.New("serve: coalescer closed")

// errRowNotServed marks a pooled result row the backend never wrote.
// Rows are pre-stamped with it before every dispatch, so a backend that
// violates the QueryBatchInto every-row-written contract (e.g. by
// erroring out early) surfaces this error instead of leaking a previous
// batch's recycled answer to an unrelated caller.
var errRowNotServed = errors.New("serve: backend did not serve this row")

// batch is one forming/in-flight micro-batch. The struct, its input
// matrix and its result rows are pooled; the done channel — minted
// lazily, only once a second caller joins — is the sole per-batch
// allocation left, amortized over every gathered query and absent
// entirely from single-caller dispatches. A batch cannot return to the
// pool before every caller has consumed its row (the refs count), so a
// leader still spinning on a batch pointer always observes its own
// incarnation.
type batch struct {
	xs       *tensor.Matrix
	n        int
	done     chan struct{} // non-nil once a second caller joins; closed when res/err/panicked are final
	res      []core.BatchResult
	err      error
	panicked any
	refs     atomic.Int32 // callers yet to consume; last one recycles
}

// batches recycles batch/dispatch state across every coalescer in the
// process. Batches are dimension-agnostic buffers (the input matrix is
// reshaped on lease, result-row capacities regrow on demand), so
// coalescers fronting backends of different shapes — the per-tenant
// instances of a fleet — draw from the one pool.
var batches sync.Pool // *batch

// lease takes a recycled batch (or mints one) ready for filling with
// in-dimensional rows.
func lease(in int) *batch {
	b, _ := batches.Get().(*batch)
	if b == nil {
		b = &batch{xs: tensor.NewMatrix(0, in)}
	}
	b.xs.Reshape(0, in)
	b.n = 0
	b.done = nil
	b.err, b.panicked = nil, nil
	return b
}

// Coalescer gathers concurrent queries into micro-batches for a
// Backend. All methods are safe for concurrent use. Close drains
// gracefully: the forming batch is dispatched, in-flight batches finish,
// and subsequent queries fail with ErrClosed.
type Coalescer struct {
	backend Backend
	in, out int
	cfg     Config

	active atomic.Int64 // QueryRows calls in flight (the observable concurrency)

	mu         sync.Mutex
	cur        *batch // forming batch, nil when none
	closed     bool
	lastDetach time.Time
	ewmaNs     float64 // smoothed per-query arrival-interval estimate
	nQueries   int64
	nBatches   int64

	inflight sync.WaitGroup // dispatched batches not yet completed
}

// NewCoalescer builds a coalescer over backend.
func NewCoalescer(backend Backend, cfg Config) *Coalescer {
	cfg.fill()
	in, out := backend.Dims()
	return &Coalescer{backend: backend, in: in, out: out, cfg: cfg}
}

// Query submits one input point — a burst of one through QueryRows — and
// blocks until its micro-batch has been served, returning the same answer
// a direct backend QueryBatchInto row would produce. The returned Y/Std
// slices are caller-owned (one array, the call's only allocation).
// Per-row oracle failures surface as the returned error; a panic in the
// backend propagates to exactly the callers of the affected batch.
func (c *Coalescer) Query(x []float64) (Result, error) {
	return c.QueryInto(x, nil, nil)
}

// QueryInto is the allocation-free form of Query: the answer is copied
// into y (and, for surrogate answers, std), which must each hold the
// backend's output dimensionality; the returned Result's Y/Std alias
// them (both nil: a fresh array, which is Query). A steady-state caller
// reusing its buffers performs zero heap allocations per query once the
// batch pool is warm.
func (c *Coalescer) QueryInto(x, y, std []float64) (res Result, err error) {
	qerr := c.QueryRows([][]float64{x}, func(_ int, r Result, rerr error) {
		if res, err = r.CopyOut(y, std); rerr != nil {
			err = rerr
		}
	})
	if qerr != nil {
		return Result{}, qerr
	}
	return res, err
}

// CopyOut copies r out of the pooled batch storage a QueryRows callback
// sees — into y and std, which must hold r's answer, or, both nil, into
// one fresh array — and returns the Result aliasing the copy. Copying
// inside the callback keeps the caller counted in flight while it
// allocates: the leader's all-joined dispatch trigger reads that count,
// and a Query that allocated outside it measurably shrank the batches.
func (r Result) CopyOut(y, std []float64) (Result, error) {
	if y == nil && std == nil {
		buf := make([]float64, len(r.Y)+len(r.Std))
		// Cap Y so an appending caller can never grow into Std.
		y, std = buf[:len(r.Y):len(r.Y)], buf[len(r.Y):]
	}
	if len(r.Y) > len(y) || len(r.Std) > len(std) {
		return Result{}, fmt.Errorf("serve: result buffers hold %d/%d values, answer has %d/%d", len(y), len(std), len(r.Y), len(r.Std))
	}
	out := Result{Src: r.Src}
	if r.Y != nil {
		out.Y = y[:copy(y, r.Y)]
	}
	if r.Std != nil {
		out.Std = std[:copy(std, r.Std)]
	}
	return out, nil
}

// lead is the gather loop run by a batch's first caller, who is blocked
// on the batch anyway and so donates its wait to arrival detection: it
// yields the processor, letting other ready callers join, and dispatches
// when every in-flight caller has joined, when the batch stops growing
// for stallSpins consecutive yields, or when the EWMA-tuned deadline
// (the estimated time for a full batch to arrive, capped at maxDelay)
// elapses. If another caller dispatches the batch first (size trigger or
// Close), the leader reports dispatched=false along with the batch's
// completion channel (captured under the lock; guaranteed non-nil, since
// every foreign dispatch path mints it first).
func (c *Coalescer) lead(b *batch) (dispatched bool, done chan struct{}) {
	stall := 0
	lastN := 0
	var start time.Time
	var deadline time.Duration
	for spins := 0; ; spins++ {
		runtime.Gosched()
		c.mu.Lock()
		if c.cur != b {
			// Dispatched by a size trigger or flushed by Close.
			done = b.done
			c.mu.Unlock()
			return false, done
		}
		if b.n == lastN {
			stall++
		} else {
			stall = 0
			lastN = b.n
		}
		// Everyone currently in flight has joined: waiting longer can
		// only add latency. (New arrivals would start the next batch.)
		expire := int64(b.n) >= c.active.Load() || stall >= stallSpins
		if !expire && spins%32 == 31 {
			// Growth is steady but slow: enforce the adaptive deadline
			// with a coarse (every-32-yields) clock check.
			now := time.Now()
			if start.IsZero() {
				start = now
				deadline = c.adaptiveDeadlineLocked()
			} else if now.Sub(start) >= deadline {
				expire = true
			}
		}
		if expire {
			c.detachLocked()
			c.mu.Unlock()
			c.run(b)
			return true, nil
		}
		c.mu.Unlock()
	}
}

// denseLocked reports whether the arrival-interval estimate classifies
// the stream as dense: another query is expected within a small fraction
// of the gather budget, so leading a batch is worth a short wait even
// when no peer is observably in flight right now. Cold starts (no
// estimate yet) read as sparse. Callers hold c.mu.
func (c *Coalescer) denseLocked() bool {
	return c.ewmaNs > 0 && time.Duration(4*c.ewmaNs) <= maxDelay
}

// adaptiveDeadlineLocked is the EWMA-tuned gather deadline: the
// estimated time for a full batch to arrive at the observed rate, capped
// at maxDelay — slow arrival streams are never held for longer than
// their own cadence justifies. Callers hold c.mu.
func (c *Coalescer) adaptiveDeadlineLocked() time.Duration {
	if c.ewmaNs == 0 {
		return maxDelay
	}
	return min(time.Duration(c.ewmaNs*float64(c.cfg.MaxBatch-1)), maxDelay)
}

// registerDispatchLocked accounts one batch dispatch: claims the caller
// refs, folds the gather interval into the arrival-rate EWMA (one clock
// read per batch, not per query) and registers the in-flight work.
// Callers hold c.mu.
func (c *Coalescer) registerDispatchLocked(b *batch) {
	b.refs.Store(int32(b.n))
	c.nBatches++
	c.inflight.Add(1)
	now := time.Now()
	if !c.lastDetach.IsZero() && b.n > 0 {
		per := float64(now.Sub(c.lastDetach)) / float64(b.n)
		if c.ewmaNs == 0 {
			c.ewmaNs = per
		} else {
			c.ewmaNs += ewmaAlpha * (per - c.ewmaNs)
		}
	}
	c.lastDetach = now
}

// detachLocked removes the forming batch from the gather slot and
// registers its dispatch; the caller then runs it. Callers hold c.mu.
func (c *Coalescer) detachLocked() {
	b := c.cur
	c.cur = nil
	c.registerDispatchLocked(b)
}

// run executes one dispatched batch on the backend through the pooled
// result rows and wakes its callers. A backend panic is captured and
// re-thrown in every caller of this batch (and only this batch).
func (c *Coalescer) run(b *batch) {
	defer func() {
		if pv := recover(); pv != nil {
			b.panicked = pv
		}
		if b.done != nil {
			close(b.done)
		}
		c.inflight.Done()
	}()
	if cap(b.res) < b.n {
		// Grow preserving the recycled rows' Y/Std capacities.
		b.res = append(b.res[:cap(b.res)], make([]core.BatchResult, b.n-cap(b.res))...)
	}
	b.res = b.res[:b.n]
	for i := range b.res {
		b.res[i].Err = errRowNotServed
	}
	b.err = c.backend.QueryBatchInto(b.xs, b.res)
}

// releaseN retires k claims at once (a burst waiter's rows).
func (c *Coalescer) releaseN(b *batch, k int) {
	if b.refs.Add(int32(-k)) == 0 {
		batches.Put(b)
	}
}

// QueryRows submits a contiguous burst of rows as a single waiter: all
// rows join the forming micro-batch together under one lock hold, the
// caller blocks once for the whole burst, and each row's answer is
// delivered through the callback in row order. It is the coalescer's one
// query path — Query and QueryInto are bursts of one — and the wire
// server's enqueue path: a network read that drains N frames hands them
// over with one channel hop and one park/wake instead of N, which is what
// keeps loopback serving within arm's reach of in-process dispatch.
//
// The callback's Result.Y/Std alias pooled batch storage and are valid
// only for the duration of that callback invocation; copy (or encode)
// before returning. Rows beyond MaxBatch split into consecutive batches,
// every chunk but the last dispatching inline. A backend panic
// propagates to the caller after the affected rows' claims are retired;
// rows in chunks before the panicking one will already have been
// delivered.
func (c *Coalescer) QueryRows(rows [][]float64, each func(i int, res Result, err error)) error {
	n := len(rows)
	if n == 0 {
		return nil
	}
	for _, x := range rows {
		if len(x) != c.in {
			return fmt.Errorf("serve: burst row has %d dims, backend wants %d", len(x), c.in)
		}
	}
	c.active.Add(1)
	defer c.active.Add(-1)
	i := 0
	for i < n {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return ErrClosed
		}
		b := c.cur
		leader, solo := false, false
		if b == nil {
			b = lease(c.in)
			if c.active.Load() == 1 && !c.denseLocked() {
				// No other waiter in flight and none imminent: the burst
				// already IS a batch — dispatch it whole, immediately,
				// with no gather wait and no completion broadcast.
				solo = true
			} else {
				c.cur = b
				leader = true
			}
		} else if b.done == nil {
			b.done = make(chan struct{})
		}
		start := b.n
		for i < n && b.n < c.cfg.MaxBatch {
			b.xs.AppendRow(rows[i])
			b.n++
			i++
		}
		k := b.n - start
		c.nQueries += int64(k)
		base := i - k
		if solo {
			c.registerDispatchLocked(b)
			c.mu.Unlock()
			c.run(b)
			c.deliver(b, start, k, base, each)
			continue
		}
		full := b.n >= c.cfg.MaxBatch
		if full {
			c.detachLocked()
		}
		done := b.done
		c.mu.Unlock()
		if full {
			c.run(b)
		} else if leader {
			dispatched, ch := c.lead(b)
			if !dispatched {
				<-ch
			}
		} else {
			<-done
		}
		c.deliver(b, start, k, base, each)
	}
	return nil
}

// deliver fans a completed batch's rows [start, start+k) back through a
// burst waiter's callback as rows base..base+k-1, then retires the
// waiter's k claims. Result slices alias pooled rows — valid only inside
// the callback. A batch panic is re-thrown after the claims are retired.
func (c *Coalescer) deliver(b *batch, start, k, base int, each func(i int, res Result, err error)) {
	if pv := b.panicked; pv != nil {
		c.releaseN(b, k)
		panic(pv)
	}
	for j := 0; j < k; j++ {
		r := &b.res[start+j]
		var res Result
		err := r.Err
		if err == errRowNotServed {
			err = b.err
			if err == nil {
				err = errRowNotServed
			}
		} else {
			res.Src = r.Src
			res.Y = r.Y
			res.Std = r.Std
			if err == nil {
				err = b.err
			}
		}
		each(base+j, res, err)
	}
	c.releaseN(b, k)
}

// Stats returns a snapshot of coalescing effectiveness.
func (c *Coalescer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Queries: c.nQueries, Batches: c.nBatches}
}

// Close drains the coalescer: the forming batch (if any) is dispatched
// immediately, all in-flight batches run to completion, and every later
// Query fails with ErrClosed. Close is idempotent and safe to call
// concurrently with Query — including while queries are mid-gather, the
// contract Fleet.Deregister relies on: a flushed batch's callers (its
// spinning leader among them) are all served before Close returns.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.inflight.Wait()
		return nil
	}
	c.closed = true
	b := c.cur
	if b != nil {
		if b.done == nil {
			// A single-caller batch skips the completion channel because
			// its only caller normally dispatches it; flushing it from
			// here means that caller (the spinning leader) must instead
			// be woken, so mint the channel before detaching. The leader
			// reads b.done under c.mu only after observing cur != b, so
			// it always sees this write.
			b.done = make(chan struct{})
		}
		c.detachLocked()
	}
	c.mu.Unlock()
	if b != nil {
		c.run(b)
	}
	c.inflight.Wait()
	return nil
}
