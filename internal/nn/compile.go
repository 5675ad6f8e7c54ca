package nn

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// This file implements the inference engine, the only float inference
// path: a trained Network is compiled into a flat batch program whose
// forward passes run with zero heap allocations and no per-layer interface
// dispatch. A single row is a batch of one. Serving wrappers recompile on
// every publish; the Tape is for training.

// stepKind discriminates compiled program steps; the values are the
// artifact format's layer kinds.
type stepKind uint8

const (
	stepDense stepKind = iota
	stepDropout
)

// compiledStep is one fused stage of the program. A dense step runs as a
// single sweep over its contiguous weight panel: the output buffer is
// seeded with the bias (no zeroing pass), the input row streams through
// the panel-axpy matmul kernel, and the activation is applied in place —
// no intermediate tensor objects and no per-layer interface dispatch.
type compiledStep struct {
	kind    stepKind
	in, out int
	w       []float64     // in x out, row-major: a window of the program's slab
	wm      tensor.Matrix // matrix view over w for the batch kernels
	b       []float64     // out: the slab window behind w
	act     Activation
	p       float64 // dropout probability (stepDropout only)
}

// Compiled is an immutable, flattened inference program for a Network.
// Its MC-dropout masks are hashed from the program's seed, the row, the
// dropout step, the pass and the unit (mcKeep), so an MC answer is a pure
// function of the program and the row. All per-call scratch (ping-pong
// activation matrices, pass-group panels, MC accumulators) lives in batch
// contexts leased from a free list, so a Compiled value is safe for
// concurrent use and its warmed calls, a row or a batch, allocate nothing.
//
// A Compiled program captures the network weights by copy at Compile
// time: training the source network afterwards does not affect it, which
// is exactly the snapshot semantics double-buffered serving needs.
type Compiled struct {
	in, out  int
	steps    []compiledStep
	slab     []float64 // every dense step's w|b in step order: the network's slab
	fs       int       // first stochastic step (live dropout), -1 if none
	maxW     int       // widest activation buffer any step needs
	maxBatch int       // batch-program chunk width (rows per fused pass)
	seedBase uint64    // the network's seed: keys every MC-dropout mask
	bpool    freeList[compiledBatchCtx]
}

// freeList is a LIFO of idle contexts. A pool the runtime empties at every
// garbage collection would mint a context's pass-group panels (one full
// chunk at the widest step each) again after each one; this list
// keeps them, cannot outgrow the peak number of concurrent calls and dies
// with its program.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// get returns the context put last, or nil when none is idle.
func (f *freeList[T]) get() (x *T) {
	f.mu.Lock()
	if n := len(f.idle); n > 0 {
		x, f.idle = f.idle[n-1], f.idle[:n-1]
	}
	f.mu.Unlock()
	return x
}

func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	f.idle = append(f.idle, x)
	f.mu.Unlock()
}

// DefaultMaxBatch is the batch-program chunk width Compile provisions
// when the caller does not pick one via CompileBatch. It matches the
// default coalescer micro-batch size so a coalesced dispatch runs as one
// fused pass.
const DefaultMaxBatch = 64

// Compile flattens the network into a fused inference program whose batch
// entry points chunk at DefaultMaxBatch rows; CompileBatch picks the width
// explicitly.
func (n *Network) Compile() *Compiled {
	return n.CompileBatch(DefaultMaxBatch)
}

// CompileBatch compiles the network like Compile with the batch program
// sized for maxBatch rows per fused pass: PredictBatch and PredictMCBatch
// accept any row count and internally split it into chunks of at most
// maxBatch rows, each served from pooled ping-pong scratch at zero heap
// allocations. Larger widths amortize per-pass overhead further at the
// cost of proportionally larger pooled buffers; the MC scratch does not
// grow with the pass count (the passes run in groups over a fixed panel,
// and masks are hashed where they are applied, never stored).
//
// The program takes one copy of the network's slab: it is immutable, so a
// later Fit of the network must not reach it. Every program compiled from
// one network keys its MC-dropout masks by the network's one seed, so two
// programs of one generation thin the same units of a row.
func (n *Network) CompileBatch(maxBatch int) *Compiled {
	c := &Compiled{seedBase: n.deriveSeed(), maxBatch: max(maxBatch, 1), steps: make([]compiledStep, 0, 2*len(n.layers))}
	for _, l := range n.layers {
		if l.p > 0 {
			c.steps = append(c.steps, compiledStep{kind: stepDropout, p: l.p})
		}
		c.steps = append(c.steps, compiledStep{kind: stepDense, in: l.in, out: l.out, act: l.act})
	}
	c.slab = slices.Clone(n.slab)
	c.bind()
	return c
}

// bind points every dense step's w and b at its window of the slab, which
// holds exactly the steps' parameters (there is a dense step), and derives
// what the run loops read off the step table: the widths, the widest
// buffer and the first live dropout.
func (c *Compiled) bind() {
	c.fs, c.maxW = -1, 0
	off := 0
	for i := range c.steps {
		st := &c.steps[i]
		if st.kind == stepDropout {
			if st.p > 0 && c.fs < 0 {
				c.fs = i
			}
			continue
		}
		if off == 0 {
			c.in, c.maxW = st.in, st.in
		}
		c.out = st.out
		if st.out > c.maxW {
			c.maxW = st.out
		}
		nw := st.in * st.out
		st.w, st.b = c.slab[off:off+nw:off+nw], c.slab[off+nw:off+nw+st.out:off+nw+st.out]
		st.wm = tensor.Matrix{Rows: st.in, Cols: st.out, Data: st.w}
		off += nw + st.out
	}
}

// Dims returns the program's input and output widths.
func (c *Compiled) Dims() (in, out int) { return c.in, c.out }

// Hidden returns the widths between the program's dense steps — what
// NewMLP was given between its input and output widths.
func (c *Compiled) Hidden() []int {
	var h []int
	for i := range c.steps {
		if c.steps[i].kind == stepDense {
			h = append(h, c.steps[i].out)
		}
	}
	return h[:len(h)-1]
}

// Dropout returns the probability of the program's first live dropout
// step, 0 when it has none.
func (c *Compiled) Dropout() float64 {
	if c.fs < 0 {
		return 0
	}
	return c.steps[c.fs].p
}

// MaxBatch returns the batch-program chunk width: the largest row count
// one fused pass serves before the batch entry points split the input.
func (c *Compiled) MaxBatch() int { return c.maxBatch }

// oneRow is a one-row matrix view over v: how the row entry points hand
// the caller's slices to the batch program.
func oneRow(v []float64) tensor.Matrix { return tensor.Matrix{Rows: 1, Cols: len(v), Data: v} }

// PredictMC runs passes MC-dropout evaluations of one row — a batch of one
// through PredictMCBatch — and writes the predictive mean and std into
// mean/std (len == out; nil allocates), returning both. With
// caller-provided buffers a warmed call allocates nothing. Safe for
// concurrent use.
func (c *Compiled) PredictMC(x []float64, passes int, mean, std []float64) (m, s []float64) {
	if mean == nil {
		mean = make([]float64, c.out)
	}
	if std == nil {
		std = make([]float64, c.out)
	}
	if len(mean) != c.out || len(std) != c.out {
		panic("nn: compiled mean/std length mismatch")
	}
	xs, ms, ss := oneRow(x), oneRow(mean), oneRow(std)
	c.PredictMCBatch(&xs, passes, &ms, &ss)
	return mean, std
}

// compiledBatchCtx owns the per-call scratch of one in-flight batch
// inference: ping-pong activation matrices for one chunk, and the two
// pass-group panels, the row keys and the pass reduction for MC
// evaluation. It holds no state between calls, so which context a call
// leases never shows in its answer. Each buffer is allocated on first use
// at the largest size the program's chunks can need (maxBatch rows;
// mcPanel floats for the pass-group panels, whatever the pass count) and
// then reused via Reshape, so a warmed context serves any chunk at any
// pass count with zero heap allocations.
type compiledBatchCtx struct {
	buf  [2]*tensor.Matrix // chunk ping-pong activations (≤ maxBatch rows)
	tall [2]*tensor.Matrix // pass-group panels (mcPanel floats each)
	keys []uint64          // the chunk's row keys (maxBatch)
	ref  []float64         // pass 0's outputs (maxBatch x out)
	sum  []float64         // per-(row, out) deviations from ref, summed over passes
	ssq  []float64         // and their squares
	view tensor.Matrix     // reusable window header over the caller's input
}

// mcPanel is the size of each pass-group panel in floats: one pass of a
// full chunk at the widest step. The pass-stacked MC path runs a chunk's
// passes in groups as tall as the panel holds, so its scratch is the same
// for 4 passes or 1 024, and a chunk narrower than maxBatch stacks more
// passes in a group.
func (c *Compiled) mcPanel() int { return c.maxBatch * c.maxW }

// getBatchCtx leases a warm batch context, or a new empty one when none
// is idle.
func (c *Compiled) getBatchCtx() *compiledBatchCtx {
	if ctx := c.bpool.get(); ctx != nil {
		return ctx
	}
	return new(compiledBatchCtx)
}

// mcRowKey keys one input row of a program seeded with seed: the seed
// chained over the row's values, so the row's MC-dropout masks follow
// what the row is, not where it sits or when it is asked.
func mcRowKey(seed uint64, x []float64) uint64 {
	k := seed
	for _, v := range x {
		k = xrand.Hash(k, math.Float64bits(v))
	}
	return k
}

// mcPassKey keys pass t of dropout step si (its index in the float step
// table) for the row keyed row.
func mcPassKey(row uint64, si, t int) uint64 {
	return xrand.Hash(xrand.Hash(row, uint64(si)), uint64(t))
}

// mcLimit is the threshold mcKeep holds a unit's 16 hash bits to: they
// fall below it with probability keep, to within 2⁻¹⁶.
func mcLimit(keep float64) uint64 { return uint64(math.Ceil(keep * (1 << 16))) }

// mcKeep is the one MC-dropout mask rule: unit j survives the pass keyed
// k when its quarter of a hash of (k, j/4) falls below lim (mcLimit); one
// hash serves four units. Every MC path keys a unit by (program seed, row,
// step, pass, unit) the same way, so the float and int8 programs of one
// generation thin the same units, and no answer depends on the batch,
// the chunk, the pass group or the goroutine that computed it.
func mcKeep(k uint64, j int, lim uint64) bool {
	return xrand.Hash(k, uint64(j>>2))>>(16*uint(j&3))&(1<<16-1) < lim
}

// mcThin applies the mask of the pass keyed k to one row of a dropout
// step's input in place: a unit mcKeep keeps under lim is scaled by inv
// (1/keep, inverted dropout), the others are zeroed. It is mcKeep four
// units a hash, unrolled, and the unit's borrow bit (its 16 bits minus
// lim) picks the multiplier rather than a branch: a unit is dropped at
// random, which a branch would mispredict.
func mcThin(row []float64, k, lim uint64, inv float64) {
	scale := [2]float64{0, inv}
	j := 0
	for ; j+4 <= len(row); j += 4 {
		h := xrand.Hash(k, uint64(j>>2))
		r := row[j : j+4 : j+4]
		r[0] *= scale[(h&(1<<16-1)-lim)>>63]
		r[1] *= scale[(h>>16&(1<<16-1)-lim)>>63]
		r[2] *= scale[(h>>32&(1<<16-1)-lim)>>63]
		r[3] *= scale[(h>>48-lim)>>63]
	}
	if j < len(row) {
		h := xrand.Hash(k, uint64(j>>2))
		for u := range row[j:] {
			row[j+u] *= scale[(h&(1<<16-1)-lim)>>63]
			h >>= 16
		}
	}
}

// reserve returns *m reshaped to rows x cols, allocating only on first use
// or growth; an allocation holds at least atLeast values, so scratch sized
// once to the largest shape its context will ask for never reallocates.
// The returned matrix's contents are unspecified.
func reserve(m **tensor.Matrix, rows, cols, atLeast int) *tensor.Matrix {
	if *m == nil {
		*m = new(tensor.Matrix)
	}
	if n := rows * cols; cap((*m).Data) < n {
		(*m).Data = make([]float64, max(n, atLeast))
	}
	return (*m).Reshape(rows, cols)
}

// grow returns *buf resized to n, reallocating only on growth.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// forwardBatchPrefix runs steps [0,hi) of rows [lo,lo+b) of xs through
// the chunk ping-pong buffers in eval mode and returns the resulting
// activation matrix. The chunk is consumed through a reusable window
// header over the caller's rows — never copied — so the result may alias
// xs when hi contains no dense step; callers only read it either way.
// The result is owned by ctx and valid until its next use.
func (c *Compiled) forwardBatchPrefix(ctx *compiledBatchCtx, xs *tensor.Matrix, lo, b, hi int) *tensor.Matrix {
	ctx.view = tensor.Matrix{Rows: b, Cols: c.in, Data: xs.Data[lo*c.in : (lo+b)*c.in]}
	cur := &ctx.view
	side := 0
	for si := 0; si < hi; si++ {
		st := &c.steps[si]
		if st.kind != stepDense {
			continue // eval-mode dropout is the identity
		}
		out := reserve(&ctx.buf[side], b, st.out, c.maxBatch*c.maxW)
		tensor.MatMulBiasInto(out, cur, &st.wm, st.b)
		st.act.applyAll(out.Data)
		cur = out
		side = 1 - side
	}
	return cur
}

// checkBatchIn panics on input-width mismatch for the batch entry points.
func (c *Compiled) checkBatchIn(xs *tensor.Matrix) {
	if xs.Cols != c.in {
		panic(fmt.Sprintf("nn: compiled batch has %d cols, program wants %d", xs.Cols, c.in))
	}
}

// PredictBatch runs a deterministic (eval-mode) forward pass over every
// row of xs, writing the results into dst (reshaped to xs.Rows x out; nil
// allocates) and returning it. Inputs wider than the compiled MaxBatch
// are split into chunks internally, so any row count is served — and with
// a caller-provided dst a warmed call performs zero heap allocations
// regardless of how many chunks it takes. Safe for concurrent use.
func (c *Compiled) PredictBatch(xs, dst *tensor.Matrix) *tensor.Matrix {
	c.checkBatchIn(xs)
	if dst == nil {
		dst = tensor.NewMatrix(xs.Rows, c.out)
	} else {
		dst.Reshape(xs.Rows, c.out)
	}
	ctx := c.getBatchCtx()
	for lo := 0; lo < xs.Rows; lo += c.maxBatch {
		b := xs.Rows - lo
		if b > c.maxBatch {
			b = c.maxBatch
		}
		out := c.forwardBatchPrefix(ctx, xs, lo, b, len(c.steps))
		copy(dst.Data[lo*c.out:(lo+b)*c.out], out.Data)
	}
	c.bpool.put(ctx)
	return dst
}

// PredictMCBatch runs passes MC-dropout evaluations over every row of xs
// and writes per-row predictive means and stds into mean/std (reshaped to
// xs.Rows x out; nil allocates), returning both.
//
// A row's masks are a pure function of the program and the row: unit j of
// dropout step s in pass t is kept by a hash of (the program's seed, the
// row's values, s, t, j) (mcKeep), so the answer's bits do not depend on
// the row's position in xs, on the other rows, on the chunking or on
// earlier calls, and every row draws its own masks, as MC dropout over
// independent samples does. Instead of replaying the stochastic suffix
// once per pass, the passes are stacked: the deterministic prefix is
// evaluated once per chunk, its output is tiled into a tall panel one
// block of rows per pass, each dropout step thins the panel row by row,
// and the whole suffix — arbitrarily many [Dropout, Dense, ...] stages —
// runs over that panel with ONE fused matmul per dense step and pass
// group rather than per pass. The panel has a fixed size, so passes that
// do not fit in one run in groups. A program with no live dropout
// collapses to one eval pass with zero std. Inputs wider than MaxBatch
// chunk internally; with caller-provided buffers a warmed call allocates
// nothing. The variance is accumulated as deviations from the first pass
// (shifted data), exact for deterministic nets and robust when the spread
// is small against the mean. Safe for concurrent use.
func (c *Compiled) PredictMCBatch(xs *tensor.Matrix, passes int, mean, std *tensor.Matrix) (m, s *tensor.Matrix) {
	if passes < 1 {
		panic("nn: PredictMCBatch needs at least one pass")
	}
	c.checkBatchIn(xs)
	if mean == nil {
		mean = tensor.NewMatrix(xs.Rows, c.out)
	} else {
		mean.Reshape(xs.Rows, c.out)
	}
	if std == nil {
		std = tensor.NewMatrix(xs.Rows, c.out)
	} else {
		std.Reshape(xs.Rows, c.out)
	}
	if c.fs < 0 {
		c.PredictBatch(xs, mean)
		std.Zero()
		return mean, std
	}
	ctx := c.getBatchCtx()
	for lo := 0; lo < xs.Rows; lo += c.maxBatch {
		b := xs.Rows - lo
		if b > c.maxBatch {
			b = c.maxBatch
		}
		c.predictMCChunk(ctx, xs, lo, b, passes, mean, std)
	}
	c.bpool.put(ctx)
	return mean, std
}

// predictMCChunk evaluates rows [lo,lo+b) of xs with MC dropout, writing
// the reduced statistics into the matching mean/std rows. It runs the
// passes in groups of g, as many as one pass-group panel holds at b rows
// of the widest step: each group tiles the prefix output g times, thins
// each row of its passes at every dropout step by the row's own key and
// runs the suffix's fused matmuls over g·b rows. A mask is keyed by the
// row and the pass index, not by the group, and a matmul row does not
// depend on how many rows share its panel, so the grouping never shows
// in the answer. The groups reduce into per-(row, out) accumulators in
// pass order: pass 0's outputs are the reference, later passes add their
// deviations from it (the shifted-data accumulation PredictMCBatch
// documents).
func (c *Compiled) predictMCChunk(ctx *compiledBatchCtx, xs *tensor.Matrix, lo, b, passes int, mean, std *tensor.Matrix) {
	keys := grow(&ctx.keys, c.maxBatch)[:b]
	for r := range keys {
		keys[r] = mcRowKey(c.seedBase, xs.Row(lo+r))
	}
	pre := c.forwardBatchPrefix(ctx, xs, lo, b, c.fs)
	panel := c.mcPanel()
	group := min(panel/(b*c.maxW), passes)
	n := b * c.out
	ref := grow(&ctx.ref, c.maxBatch*c.out)[:n]
	sum := grow(&ctx.sum, c.maxBatch*c.out)[:n]
	ssq := grow(&ctx.ssq, c.maxBatch*c.out)[:n]
	clear(sum)
	clear(ssq)
	for t0 := 0; t0 < passes; t0 += group {
		g := min(group, passes-t0)
		tall := tensor.RepeatRowsInto(reserve(&ctx.tall[0], g*b, pre.Cols, panel), pre, g)
		side := 1
		for si := c.fs; si < len(c.steps); si++ {
			st := &c.steps[si]
			switch {
			case st.kind == stepDense:
				out := reserve(&ctx.tall[side], g*b, st.out, panel)
				tensor.MatMulBiasInto(out, tall, &st.wm, st.b)
				st.act.applyAll(out.Data)
				tall = out
				side = 1 - side
			case st.p > 0:
				lim, inv := mcLimit(1-st.p), 1/(1-st.p)
				for t := 0; t < g; t++ {
					for r, key := range keys {
						mcThin(tall.Row(t*b+r), mcPassKey(key, si, t0+t), lim, inv)
					}
				}
			}
		}
		for t := 0; t < g; t++ {
			mcAccumulate(tall.Data[t*n:(t+1)*n], t0+t, ref, sum, ssq)
		}
	}
	mcFinish(ref, sum, ssq, passes, mean.Data[lo*c.out:lo*c.out+n], std.Data[lo*c.out:lo*c.out+n])
}

// mcAccumulate folds the outputs y of pass t into the shifted-data
// accumulators: pass 0's outputs become the reference ref, and each later
// pass adds its deviations from it to sum and their squares to ssq.
func mcAccumulate(y []float64, t int, ref, sum, ssq []float64) {
	if t == 0 {
		copy(ref, y)
		return
	}
	for k, v := range y {
		d := v - ref[k]
		sum[k] += d
		ssq[k] += d * d
	}
}

// mcFinish writes the predictive mean and std of passes MC passes from
// their shifted-data accumulators (mcAccumulate). Accumulating deviations
// from the first pass is exact for deterministic nets and robust when
// the spread is small against the mean.
func mcFinish(ref, sum, ssq []float64, passes int, mean, std []float64) {
	invP := 1 / float64(passes)
	for k, r := range ref {
		d := sum[k] * invP
		mean[k] = r + d
		v := ssq[k]*invP - d*d
		if v < 0 {
			v = 0
		}
		std[k] = math.Sqrt(v)
	}
}
