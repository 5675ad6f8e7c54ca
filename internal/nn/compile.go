package nn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

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
// All mutable per-call state (ping-pong activation matrices, dropout rng,
// MC accumulators) lives in batch contexts leased from a free list, so a
// Compiled value is safe for concurrent use and its warmed calls, a row or
// a batch, allocate nothing.
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
	seedBase uint64
	seedCtr  atomic.Uint64
	bpool    freeList[compiledBatchCtx]
}

// freeList is a LIFO of idle contexts. A pool the runtime empties at every
// garbage collection would mint a context's pass-group panels (a quarter
// MB each, or more for a wide MaxBatch) again after each one; this list
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
// grow with the pass count (the passes run in groups over a fixed panel),
// only its mask store does.
//
// The program takes one copy of the network's slab: it is immutable, so a
// later Fit of the network must not reach it.
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

// Predict runs one deterministic (eval-mode) forward pass — a batch of one
// through PredictBatch — writing the result into dst (len == out; nil
// allocates) and returning it. With a caller-provided dst a warmed Predict
// performs zero heap allocations. Safe for concurrent use.
func (c *Compiled) Predict(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.out)
	} else if len(dst) != c.out {
		panic(fmt.Sprintf("nn: compiled dst len %d, want %d", len(dst), c.out))
	}
	xs, ys := oneRow(x), oneRow(dst)
	c.PredictBatch(&xs, &ys)
	return dst
}

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
// inference: ping-pong activation matrices for one chunk, the two
// pass-group panels and the pass reduction for MC evaluation, the column
// masks, and a private rng stream. Each matrix is allocated on first use
// at the largest size the program's chunks can need (maxBatch rows;
// mcPanel floats for the pass-group panels, whatever the pass count) and
// then reused via Reshape, so a warmed context serves any chunk at zero
// heap allocations and chunks of varying width never reallocate it. Only
// the mask store scales with passes, so a larger pass count than any
// before grows that alone.
type compiledBatchCtx struct {
	buf   [2]*tensor.Matrix // chunk ping-pong activations (≤ maxBatch rows)
	tall  [2]*tensor.Matrix // pass-group panels (mcPanel floats each)
	masks []float64         // every live dropout's column masks, passes x width each
	ref   []float64         // pass 0's outputs (maxBatch x out)
	sum   []float64         // per-(row, out) deviations from ref, summed over passes
	ssq   []float64         // and their squares
	view  tensor.Matrix     // reusable window header over the caller's input
	rng   *xrand.Rand
}

// mcPanelFloats is the floor of a pass-group panel's size in floats
// (256 KB). The pass-stacked MC path runs a chunk's passes in groups as
// tall as the panel holds, so its scratch is the same for 4 passes or 1 024
// and two panels stay cache-resident next to the weights.
const mcPanelFloats = 1 << 15

// mcPanel is the size of each pass-group panel in floats: at least one
// pass of a full chunk at the widest step.
func (c *Compiled) mcPanel() int { return max(mcPanelFloats, c.maxBatch*c.maxW) }

// getBatchCtx leases a warm batch context, minting one with a fresh
// deterministic rng substream when none is idle.
func (c *Compiled) getBatchCtx() *compiledBatchCtx {
	if ctx := c.bpool.get(); ctx != nil {
		return ctx
	}
	return &compiledBatchCtx{
		rng: xrand.New(c.seedBase + c.seedCtr.Add(1)*0x9e3779b97f4a7c15),
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

// growFloats returns *buf resized to n, reallocating only on growth.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
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
// Instead of replaying the stochastic suffix once per pass, the passes
// are stacked: the deterministic prefix is evaluated once per chunk, its
// output is tiled into a tall panel one block of rows per pass, and the
// whole suffix — arbitrarily many [Dropout, Dense, ...] stages — runs over
// that panel with ONE fused matmul per dense step. Each dropout step
// samples one column mask per pass (shared across the pass's rows, the
// same marginals as per-element masking) and scales its pass block, so
// deep multi-dropout surrogates pay a matmul sweep per dense step and pass
// group rather than per pass. The panel has a fixed size, so passes that
// do not fit in one run in groups; the answer's bits do not depend on the
// grouping. A program with no live dropout collapses to one eval pass with
// zero std. Inputs wider than MaxBatch chunk internally; with
// caller-provided buffers a warmed call allocates nothing. The variance
// is accumulated as deviations from the first pass (shifted data), exact
// for deterministic nets and robust when the spread is small against the
// mean. Safe for concurrent use.
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
// the reduced statistics into the matching mean/std rows. The canonical
// [..., Dropout, Dense] tail takes the masked-weight panel fast path
// (stack every pass's diag(mₜ)·W side by side and run all passes as one
// b x (passes·out) matmul — O(in·passes·out) mask work); deeper
// stochastic suffixes take the general pass-stacked path below.
//
// That path runs the passes in groups of g, as many as one pass-group
// panel holds at b rows of the widest step: each group tiles the prefix
// output g times, applies its passes' masks and runs the suffix's fused
// matmuls over g·b rows. The masks are all drawn before the first group,
// in the order a single group would draw them, and a matmul row does not
// depend on how many rows share its panel, so the grouping never shows in
// the answer. The groups reduce into per-(row, out) accumulators in pass
// order: pass 0's outputs are the reference, later passes add their
// deviations from it (the shifted-data accumulation PredictMCBatch
// documents).
func (c *Compiled) predictMCChunk(ctx *compiledBatchCtx, xs *tensor.Matrix, lo, b, passes int, mean, std *tensor.Matrix) {
	if c.fs == len(c.steps)-2 && c.steps[c.fs+1].kind == stepDense {
		c.predictMCChunkTail(ctx, xs, lo, b, passes, mean, std)
		return
	}
	pre := c.forwardBatchPrefix(ctx, xs, lo, b, c.fs)
	masks := c.drawMasks(ctx, pre.Cols, passes)
	panel := c.mcPanel()
	group := min(panel/(b*c.maxW), passes)
	n := b * c.out
	ref := growFloats(&ctx.ref, c.maxBatch*c.out)[:n]
	sum := growFloats(&ctx.sum, c.maxBatch*c.out)[:n]
	ssq := growFloats(&ctx.ssq, c.maxBatch*c.out)[:n]
	clear(sum)
	clear(ssq)
	for t0 := 0; t0 < passes; t0 += group {
		g := min(group, passes-t0)
		tall := tensor.RepeatRowsInto(reserve(&ctx.tall[0], g*b, pre.Cols, panel), pre, g)
		side, mo := 1, 0 // mo: the current dropout stage's offset in masks
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
				w := tall.Cols
				tensor.ScaleColumnsBlocks(tall, tall, masks[mo+t0*w:mo+(t0+g)*w], b)
				mo += passes * w
			}
		}
		for t := 0; t < g; t++ {
			blk := tall.Data[t*n : (t+1)*n]
			if t0+t == 0 {
				copy(ref, blk)
				continue
			}
			for k, v := range blk {
				d := v - ref[k]
				sum[k] += d
				ssq[k] += d * d
			}
		}
	}
	invP := 1 / float64(passes)
	mrow, srow := mean.Data[lo*c.out:lo*c.out+n], std.Data[lo*c.out:lo*c.out+n]
	for k, r := range ref {
		d := sum[k] * invP
		mrow[k] = r + d
		v := ssq[k]*invP - d*d
		if v < 0 {
			v = 0
		}
		srow[k] = math.Sqrt(v)
	}
}

// drawMasks samples the column masks of every live dropout step of the
// stochastic suffix for all passes into ctx.masks and returns them: step
// by step, passes x width each, pass-major — the order one tall panel
// over all passes reads the rng in. w is the width entering the suffix.
func (c *Compiled) drawMasks(ctx *compiledBatchCtx, w, passes int) []float64 {
	n := 0
	for si, cols := c.fs, w; si < len(c.steps); si++ {
		if st := &c.steps[si]; st.kind == stepDense {
			cols = st.out
		} else if st.p > 0 {
			n += passes * cols
		}
	}
	masks := growFloats(&ctx.masks, n)
	k := 0
	for si, cols := c.fs, w; si < len(c.steps); si++ {
		if st := &c.steps[si]; st.kind == stepDense {
			cols = st.out
		} else if st.p > 0 {
			keep := 1 - st.p
			inv := 1 / keep
			for end := k + passes*cols; k < end; k++ {
				if ctx.rng.Float64() < keep {
					masks[k] = inv
				} else {
					masks[k] = 0
				}
			}
		}
	}
	return masks
}

// predictMCChunkTail is the canonical-tail fast path: the stochastic
// suffix is exactly [Dropout, Dense], so each pass's thinned output layer
// is h·(diag(mₜ)·W) and the passes stack side by side into one
// b x (passes·out) product
//
//	Y = pre · [diag(m₁)W | diag(m₂)W | … ]
//
// — one matmul for all passes (catastrophic as passes separate skinny
// matmuls for an out of 1, the usual surrogate shape) with mask work
// proportional to the weight panel, not the batch.
func (c *Compiled) predictMCChunkTail(ctx *compiledBatchCtx, xs *tensor.Matrix, lo, b, passes int, mean, std *tensor.Matrix) {
	pre := c.forwardBatchPrefix(ctx, xs, lo, b, c.fs)
	dr := &c.steps[c.fs]
	nd := &c.steps[c.fs+1]
	in, out := nd.in, nd.out
	packW := reserve(&ctx.tall[0], in, passes*out, 0)
	keep := 1 - dr.p
	inv := 1 / keep
	for r := 0; r < in; r++ {
		src := nd.w[r*out : (r+1)*out]
		dstRow := packW.Data[r*passes*out : (r+1)*passes*out]
		for t := 0; t < passes; t++ {
			m := 0.0
			if ctx.rng.Float64() < keep {
				m = inv
			}
			seg := dstRow[t*out : (t+1)*out]
			for j, v := range src {
				seg[j] = v * m
			}
		}
	}
	packY := reserve(&ctx.tall[1], b, passes*out, c.maxBatch*passes*out)
	tensor.MatMulInto(packY, pre, packW)
	reducePassPanel(packY, nd.b, nd.act, passes, mean.Data[lo*out:], std.Data[lo*out:])
}

// reducePassPanel finishes a fused MC panel: each row of packY holds the
// passes side-by-side pre-bias outputs (len(bias) wide each) of one query.
// Bias and activation are applied to the whole panel in place, then each
// row's passes reduce into its row of mean and std, accumulating
// deviations from the first pass (shifted data) as the generic paths do.
func reducePassPanel(packY *tensor.Matrix, bias []float64, act Activation, passes int, mean, std []float64) {
	out := len(bias)
	for k := 0; k < len(packY.Data); k += out {
		for j, b := range bias {
			packY.Data[k+j] += b
		}
	}
	act.applyAll(packY.Data)
	invP := 1 / float64(passes)
	for r := 0; r < packY.Rows; r++ {
		yrow := packY.Row(r)
		mrow, srow := mean[r*out:(r+1)*out], std[r*out:(r+1)*out]
		for j, ref := range yrow[:out] {
			sum, ssq := 0.0, 0.0
			for t := 1; t < passes; t++ {
				d := yrow[t*out+j] - ref
				sum += d
				ssq += d * d
			}
			d := sum * invP
			mrow[j] = ref + d
			v := ssq*invP - d*d
			if v < 0 {
				v = 0
			}
			srow[j] = math.Sqrt(v)
		}
	}
}
