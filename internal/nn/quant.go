package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file implements the int8 quantized execution mode of the compiled
// inference engine. A QuantCompiled program is derived from a float
// Compiled program: every dense step's weight panel is quantized to the
// symmetric 7-bit grid with per-output-channel scales (bias kept in
// float) and packed for the SWAR sweep kernel, and every hidden layer
// with a bounded activation (Tanh/Sigmoid) runs a fully integer
// dequant+bias+activation+requant epilogue — the hot path touches no
// floats between the input quantization and the final layer. The same
// pooled ping-pong contexts as the float program keep Predict and
// PredictBatch at zero heap allocations.
//
// Quantization is an approximation, so every program carries two error
// figures in scaled-output units:
//
//   - ErrorBound: a worst-case interval bound propagated layer by layer
//     at quantize time (weight rounding × activation envelope + input
//     rounding × column mass + the measured epilogue error). It is
//     guaranteed for any input inside the calibrated envelope; the
//     property tests enforce it.
//   - CalibratedError: the observed max |quantized − float| over the
//     calibration slice — the realistic figure serving uses to size the
//     UQ guardrail band (GateBound).
//
// Inputs are quantized with a FIXED scale chosen from the calibration
// slice (so the integer epilogue coefficients can be precomputed once).
// An input outside that envelope clips; every entry point reports it so
// callers can re-run the retained float program instead of silently
// serving a degraded answer.

// quantAct describes the LUT domain for a bounded activation: outside
// [lo, hi] the function is flat at the resolution of the 1/63 grid.
func quantActDomain(a Activation) (lo, hi float64, ok bool) {
	switch a {
	case Tanh:
		return -4, 4, true
	case Sigmoid:
		return -8, 8, true
	}
	return 0, 0, false
}

// quantLip is the Lipschitz constant of an activation, used by the
// interval error propagation.
func quantLip(a Activation) float64 {
	if a == Sigmoid {
		return 0.25
	}
	return 1 // Identity, ReLU, Tanh
}

// quantEpiErr is the measured worst-case error of the fused integer
// epilogue (index affine + LUT interpolation + requant rounding) in
// steps of the 1/QuantMax grid; see TestQuantEpilogueError, which
// asserts 0.75 against a measured 0.52.
const quantEpiErr = 0.8

// quantStep is one stage of a quantized program. Hidden dense steps are
// "fused": their epilogue maps raw int32 accumulators straight to the
// next layer's int8 activations through a fixed-point LUT. The final
// dense step dequantizes to float64 and applies its activation exactly.
type quantStep struct {
	kind    stepKind
	in, out int
	panel   tensor.QuantPanel
	wscale  []float64 // per-output-channel weight scales (grid step size)
	b       []float64
	act     Activation
	p       float64 // dropout probability (stepDropout only)

	fused        bool
	lut          *tensor.QuantLUT
	aF, cF       []float64 // eval-mode LUT index coefficients
	aFmc         []float64 // MC-mode: dropout survivor scaling folded in
	sEff, sEffMC []float64 // final-step float dequant scales
}

// QuantCompiled is an immutable int8 inference program derived from a
// Compiled float program via Quantize. Like Compiled it is safe for
// concurrent use and its warmed entry points allocate nothing.
type QuantCompiled struct {
	in, out  int
	steps    []quantStep
	fs       int // first stochastic step (live dropout), -1 if none
	maxW     int
	inScale  float64 // input units per grid step (envelope/QuantMax)
	invIn    float64 // QuantMax/envelope
	bound    []float64
	boundMax float64
	calErr   float64
	gate     float64
	seedBase uint64 // the float program's: the int8 masks thin its units
	pool     freeList[quantCtx]
}

// quantCtx owns the per-call scratch of one in-flight quantized
// inference: int8 ping-pong activation buffers, the packed-word and
// accumulator scratch the sweep kernel needs, the parked MC prefix, and
// the float reduction buffers. It holds no state between calls: the MC
// masks are hashed per row and pass (mcKeep), not drawn from the context.
type quantCtx struct {
	qbuf [2][]int8
	pre  []int8
	ux   []uint64
	acc  []int32
	out  []float64
	ref  []float64
	sum  []float64
	ssq  []float64
}

// Quantize derives an int8 program from the compiled float program,
// calibrating against calib (rows of scaled model inputs — typically a
// held-out slice of the training window). The calibration slice fixes
// the input quantization envelope (max |x| with a 25% margin) and
// measures the observed quantization error that sizes the serving
// guardrail band; the analytic worst-case bound is computed regardless.
// calib may be nil, in which case a generic ±8 envelope is assumed and
// the guardrail band falls back to the analytic bound.
//
// Quantization requires every hidden dense activation to be bounded
// (Tanh or Sigmoid — what gives the fixed requant grid its meaning) and
// the program to end on a dense step; otherwise Quantize returns nil
// and callers keep serving the float program. The derivation is
// deterministic: identical float programs yield bit-identical panels
// and scales, which is what the serialized-artifact round-trip relies
// on.
func (c *Compiled) Quantize(calib *tensor.Matrix) *QuantCompiled {
	ld := -1 // last dense step
	for si := range c.steps {
		if c.steps[si].kind == stepDense {
			ld = si
		}
	}
	if ld != len(c.steps)-1 {
		return nil // program must end on a dense step
	}
	for si := range c.steps {
		st := &c.steps[si]
		if st.kind != stepDense || si == ld {
			continue
		}
		if _, _, ok := quantActDomain(st.act); !ok {
			return nil // unbounded hidden activation: no fixed requant grid
		}
	}

	env := 8.0
	if calib != nil && calib.Rows > 0 {
		m := 0.0
		for _, v := range calib.Data {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		// 25% margin so near-envelope serving inputs don't clip; a
		// floor keeps a degenerate all-zero slice from collapsing the
		// grid.
		env = math.Max(m*1.25, 1e-6)
	}

	q := &QuantCompiled{
		in: c.in, out: c.out,
		fs: c.fs, maxW: c.maxW,
		inScale:  env / tensor.QuantMax,
		invIn:    tensor.QuantMax / env,
		seedBase: c.seedBase,
	}

	luts := map[Activation]*tensor.QuantLUT{}

	// Interval error propagation state, all in real (scaled) units:
	// E bounds |dequantized − float| of the current activations, X
	// bounds their float magnitude, pending accumulates dropout
	// survivor scaling folded into the next dense step.
	E := 0.5 * q.inScale
	X := env
	pending := 1.0
	firstDense := true

	for si := range c.steps {
		st := &c.steps[si]
		if st.kind == stepDropout {
			if st.p > 0 {
				pending *= 1 / (1 - st.p)
			}
			q.steps = append(q.steps, quantStep{kind: stepDropout, p: st.p})
			continue
		}
		in, out := st.in, st.out
		dm := pending
		pending = 1

		// Per-output-channel symmetric quantization of the weight
		// panel; column j's grid step is maxabs_j/QuantMax.
		q8 := make([]int8, in*out)
		wscale := make([]float64, out)
		colAbs := make([]float64, out)
		for j := 0; j < out; j++ {
			m := 0.0
			for i := 0; i < in; i++ {
				a := math.Abs(st.w[i*out+j])
				colAbs[j] += a
				if a > m {
					m = a
				}
			}
			wscale[j] = m / tensor.QuantMax
		}
		for i := 0; i < in; i++ {
			for j := 0; j < out; j++ {
				if wscale[j] == 0 {
					continue
				}
				v := math.Round(st.w[i*out+j] / wscale[j])
				if v > tensor.QuantMax {
					v = tensor.QuantMax
				} else if v < -tensor.QuantMax {
					v = -tensor.QuantMax
				}
				q8[i*out+j] = int8(v)
			}
		}

		qs := quantStep{
			kind: stepDense, in: in, out: out,
			panel:  tensor.PackQuantPanel(q8, in, out),
			wscale: wscale,
			b:      append([]float64(nil), st.b...),
			act:    st.act,
		}

		// The input grid step of this dense: env/63 at the program
		// input, 1/63 after any bounded hidden activation.
		sx := q.inScale
		if !firstDense {
			sx = 1.0 / tensor.QuantMax
		}
		firstDense = false

		// Pre-activation error of channel j: weight rounding times the
		// activation envelope plus input rounding times the column
		// mass, both scaled by the folded dropout multiplier (the
		// float path scales survivors by the same factor).
		zmax := 0.0
		z := make([]float64, out)
		for j := 0; j < out; j++ {
			z[j] = dm * (0.5*wscale[j]*float64(in)*X + E*colAbs[j])
			if z[j] > zmax {
				zmax = z[j]
			}
		}

		if si == ld {
			qs.sEff = make([]float64, out)
			qs.sEffMC = make([]float64, out)
			for j := 0; j < out; j++ {
				qs.sEff[j] = sx * wscale[j]
				qs.sEffMC[j] = sx * wscale[j] * dm
			}
			lip := quantLip(st.act)
			q.bound = make([]float64, out)
			for j := 0; j < out; j++ {
				q.bound[j] = lip*z[j] + 1e-12
				if q.bound[j] > q.boundMax {
					q.boundMax = q.bound[j]
				}
			}
		} else {
			lo, hi, _ := quantActDomain(st.act)
			lut := luts[st.act]
			if lut == nil {
				lut = tensor.BuildQuantLUT(st.act.applyAll, lo, hi)
				luts[st.act] = lut
			}
			qs.fused = true
			qs.lut = lut
			qs.aF = make([]float64, out)
			qs.cF = make([]float64, out)
			qs.aFmc = make([]float64, out)
			for j := 0; j < out; j++ {
				aF, cF := tensor.QuantIndexCoeffs(sx*wscale[j], st.b[j], lo, hi)
				aFmc, _ := tensor.QuantIndexCoeffs(sx*wscale[j]*dm, st.b[j], lo, hi)
				qs.aF[j] = aF
				qs.cF[j] = cF
				qs.aFmc[j] = aFmc
			}
			E = quantLip(st.act)*zmax + quantEpiErr/tensor.QuantMax
			X = 1 // bounded activation amplitude
		}
		q.steps = append(q.steps, qs)
	}

	q.gate = q.boundMax
	if calib != nil && calib.Rows > 0 {
		q.calErr = q.measureCalibError(c, calib)
		// The guardrail band is sized from observed error with an 8x
		// safety factor, capped by the guaranteed bound — tight enough
		// that fallbacks stay rare, wide enough that a decision flip
		// inside the band is implausible.
		if g := 8 * q.calErr; g < q.gate {
			q.gate = g
		}
	}
	return q
}

// measureCalibError runs the calibration slice through both programs as
// one batch each and returns the max abs output delta in scaled units.
func (q *QuantCompiled) measureCalibError(c *Compiled, calib *tensor.Matrix) float64 {
	qout := q.PredictBatch(calib, nil, nil)
	fout := c.PredictBatch(calib, nil)
	maxd := 0.0
	for k, v := range qout.Data {
		if d := math.Abs(v - fout.Data[k]); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Dims returns the program's input and output widths.
func (q *QuantCompiled) Dims() (in, out int) { return q.in, q.out }

// ErrorBound returns the guaranteed worst-case |quantized − float|
// output delta in scaled units, valid for any input inside the
// calibrated envelope (largest across output channels).
func (q *QuantCompiled) ErrorBound() float64 { return q.boundMax }

// ErrorBounds returns the per-output-channel guaranteed bounds.
func (q *QuantCompiled) ErrorBounds() []float64 { return q.bound }

// CalibratedError returns the max |quantized − float| observed on the
// calibration slice (0 when quantized without one).
func (q *QuantCompiled) CalibratedError() float64 { return q.calErr }

// GateBound returns the serving guardrail half-width in scaled units:
// when a UQ decision lands within this distance of its threshold the
// quantization delta could plausibly flip it and the caller should
// re-run the float program. It is min(ErrorBound, 8×CalibratedError).
func (q *QuantCompiled) GateBound() float64 { return q.gate }

// getCtx leases a warm context, minting one when none is idle.
func (q *QuantCompiled) getCtx() *quantCtx {
	if ctx := q.pool.get(); ctx != nil {
		return ctx
	}
	return &quantCtx{
		qbuf: [2][]int8{make([]int8, q.maxW), make([]int8, q.maxW)},
		pre:  make([]int8, q.maxW),
		ux:   make([]uint64, q.maxW),
		acc:  make([]int32, q.maxW),
		out:  make([]float64, q.out),
		ref:  make([]float64, q.out),
		sum:  make([]float64, q.out),
		ssq:  make([]float64, q.out),
	}
}

// run executes steps [lo,hi) on the int8 activations cur, ping-ponging
// through ctx.qbuf starting at side. The final dense step dequantizes
// into dst; fused steps stay on the int8 grid throughout. pass is the MC
// pass index, or -1 for an eval-mode run; an MC pass applies the dropout
// masks of the row keyed row (mcRowKey) and the MC variants of the
// epilogue coefficients (which carry the survivor scaling). Dropout
// masks cur in place, so MC callers replay from a parked copy of the
// prefix.
func (q *QuantCompiled) run(ctx *quantCtx, cur []int8, side, lo, hi, pass int, row uint64, dst []float64) {
	mc := pass >= 0
	for si := lo; si < hi; si++ {
		st := &q.steps[si]
		switch st.kind {
		case stepDense:
			acc := ctx.acc[:st.out]
			st.panel.Sweep(acc, cur, ctx.ux)
			if st.fused {
				out := ctx.qbuf[side][:st.out]
				aF := st.aF
				if mc {
					aF = st.aFmc
				}
				tensor.QuantEpilogue(out, acc, aF, st.cF, st.lut)
				cur = out
				side = 1 - side
			} else {
				sEff := st.sEff
				if mc {
					sEff = st.sEffMC
				}
				for j, a := range acc {
					dst[j] = float64(a)*sEff[j] + st.b[j]
				}
				st.act.applyAll(dst[:len(acc)])
			}
		case stepDropout:
			if !mc || st.p == 0 {
				continue
			}
			lim, k := mcLimit(1-st.p), mcPassKey(row, si, pass)
			for i := range cur {
				if !mcKeep(k, i, lim) {
					cur[i] = 0
				}
			}
			// Survivor scaling is folded into the next dense step's
			// MC epilogue coefficients — the int8 grid never rescales.
		}
	}
}

func (q *QuantCompiled) checkIn(x []float64) {
	if len(x) != q.in {
		panic(fmt.Sprintf("nn: quantized program expects %d inputs, got %d", q.in, len(x)))
	}
}

// Predict runs one deterministic (eval-mode) quantized forward pass,
// writing the result into dst (len == out; nil allocates) and returning
// it together with ok=false when any input coordinate clipped against
// the calibrated envelope — the signal that the compile-time error
// bound does not cover this query and the caller should use the float
// program. With a caller-provided dst a warmed Predict performs zero
// heap allocations. Safe for concurrent use.
func (q *QuantCompiled) Predict(x, dst []float64) ([]float64, bool) {
	q.checkIn(x)
	if dst == nil {
		dst = make([]float64, q.out)
	} else if len(dst) != q.out {
		panic(fmt.Sprintf("nn: quantized dst len %d, want %d", len(dst), q.out))
	}
	ctx := q.getCtx()
	qx := ctx.qbuf[0][:q.in]
	clipped := tensor.QuantizeVec(qx, x, q.invIn)
	q.run(ctx, qx, 1, 0, len(q.steps), -1, 0, dst)
	q.pool.put(ctx)
	return dst, !clipped
}

// PredictMC runs passes stochastic quantized evaluations (MC dropout)
// and writes the predictive mean and std into mean/std (len == out; nil
// allocates). The deterministic prefix is quantized and evaluated once,
// parked as int8, and replayed per pass; dropout masks zero grid
// entries in place (the sweep kernel recomputes its input-sum
// correction, so masking is exact) and the survivor scaling rides the
// precomputed MC epilogue coefficients. Variance accumulates as
// deviations from the first pass, matching the float path's numerics.
// ok=false reports input clipping as in Predict. With caller-provided
// buffers a warmed call allocates nothing. Safe for concurrent use.
func (q *QuantCompiled) PredictMC(x []float64, passes int, mean, std []float64) (m, s []float64, ok bool) {
	if passes < 1 {
		panic("nn: PredictMC needs at least one pass")
	}
	q.checkIn(x)
	if mean == nil {
		mean = make([]float64, q.out)
	}
	if std == nil {
		std = make([]float64, q.out)
	}
	if len(mean) != q.out || len(std) != q.out {
		panic("nn: quantized mean/std length mismatch")
	}
	ctx := q.getCtx()
	qx := ctx.qbuf[0][:q.in]
	clipped := tensor.QuantizeVec(qx, x, q.invIn)
	ok = !clipped
	if q.fs < 0 {
		q.run(ctx, qx, 1, 0, len(q.steps), -1, 0, mean)
		for k := range std {
			std[k] = 0
		}
		q.pool.put(ctx)
		return mean, std, ok
	}
	q.mcFrom(ctx, qx, mcRowKey(q.seedBase, x), passes, mean, std)
	q.pool.put(ctx)
	return mean, std, ok
}

// mcFrom runs the MC passes for one already-quantized input row held in
// ctx.qbuf[0][:q.in], whose float values key its masks as row, reducing
// into mean/std.
func (q *QuantCompiled) mcFrom(ctx *quantCtx, qx []int8, row uint64, passes int, mean, std []float64) {
	// Park the deterministic prefix so every pass replays it from an
	// unmasked copy (dropout zeroes the working buffer in place).
	var pre []int8
	if q.fs > 0 {
		q.runPrefix(ctx, qx)
		pre = ctx.pre[:q.prefixWidth()]
	} else {
		pre = ctx.pre[:len(qx)]
		copy(pre, qx)
	}
	ref, sum, ssq := ctx.ref, ctx.sum, ctx.ssq
	for k := range sum {
		sum[k] = 0
		ssq[k] = 0
	}
	out := ctx.out[:q.out]
	for t := 0; t < passes; t++ {
		cur := ctx.qbuf[0][:len(pre)]
		copy(cur, pre)
		q.run(ctx, cur, 1, q.fs, len(q.steps), t, row, out)
		mcAccumulate(out, t, ref, sum, ssq)
	}
	mcFinish(ref, sum, ssq, passes, mean, std)
}

// prefixWidth returns the activation width entering step fs.
func (q *QuantCompiled) prefixWidth() int {
	w := q.in
	for si := 0; si < q.fs; si++ {
		if q.steps[si].kind == stepDense {
			w = q.steps[si].out
		}
	}
	return w
}

// runPrefix evaluates steps [0,fs) of the quantized input in ctx's
// buffers and parks the int8 result in ctx.pre.
func (q *QuantCompiled) runPrefix(ctx *quantCtx, qx []int8) {
	cur, side := qx, 1
	for si := 0; si < q.fs; si++ {
		st := &q.steps[si]
		if st.kind != stepDense {
			continue // eval-mode dropout is the identity
		}
		acc := ctx.acc[:st.out]
		st.panel.Sweep(acc, cur, ctx.ux)
		out := ctx.qbuf[side][:st.out]
		tensor.QuantEpilogue(out, acc, st.aF, st.cF, st.lut)
		cur = out
		side = 1 - side
	}
	copy(ctx.pre[:len(cur)], cur)
}

func (q *QuantCompiled) checkBatchIn(xs *tensor.Matrix) {
	if xs.Cols != q.in {
		panic(fmt.Sprintf("nn: quantized batch has %d cols, program wants %d", xs.Cols, q.in))
	}
}

// PredictBatch runs the deterministic quantized pass over every row of
// xs into dst (reshaped to xs.Rows x out; nil allocates). ok, when
// non-nil, must have xs.Rows entries and receives the per-row clipping
// verdict. Rows are served through the identical single-row path, so
// the batch result is bit-exact with xs.Rows separate Predict calls —
// the property the quantized batch tests pin down. With caller-provided
// buffers a warmed call allocates nothing. Safe for concurrent use.
func (q *QuantCompiled) PredictBatch(xs, dst *tensor.Matrix, ok []bool) *tensor.Matrix {
	q.checkBatchIn(xs)
	if dst == nil {
		dst = tensor.NewMatrix(xs.Rows, q.out)
	} else {
		dst.Reshape(xs.Rows, q.out)
	}
	if ok != nil && len(ok) != xs.Rows {
		panic("nn: quantized ok slice length mismatch")
	}
	ctx := q.getCtx()
	for r := 0; r < xs.Rows; r++ {
		qx := ctx.qbuf[0][:q.in]
		clipped := tensor.QuantizeVec(qx, xs.Data[r*q.in:(r+1)*q.in], q.invIn)
		if ok != nil {
			ok[r] = !clipped
		}
		q.run(ctx, qx, 1, 0, len(q.steps), -1, 0, dst.Data[r*q.out:(r+1)*q.out])
	}
	q.pool.put(ctx)
	return dst
}

// PredictMCBatch runs passes MC-dropout quantized evaluations per row
// of xs, writing per-row predictive means and stds (reshaped to
// xs.Rows x out; nil allocates); ok as in PredictBatch. Unlike the
// float batch program there is no pass-stacked matmul to amortize —
// the SWAR kernel is already row-serial — so rows run through the
// single-row MC path back to back on one pooled context. With
// caller-provided buffers a warmed call allocates nothing. Safe for
// concurrent use.
func (q *QuantCompiled) PredictMCBatch(xs *tensor.Matrix, passes int, mean, std *tensor.Matrix, ok []bool) (m, s *tensor.Matrix) {
	if passes < 1 {
		panic("nn: PredictMCBatch needs at least one pass")
	}
	q.checkBatchIn(xs)
	if mean == nil {
		mean = tensor.NewMatrix(xs.Rows, q.out)
	} else {
		mean.Reshape(xs.Rows, q.out)
	}
	if std == nil {
		std = tensor.NewMatrix(xs.Rows, q.out)
	} else {
		std.Reshape(xs.Rows, q.out)
	}
	if ok != nil && len(ok) != xs.Rows {
		panic("nn: quantized ok slice length mismatch")
	}
	ctx := q.getCtx()
	for r := 0; r < xs.Rows; r++ {
		qx := ctx.qbuf[0][:q.in]
		clipped := tensor.QuantizeVec(qx, xs.Data[r*q.in:(r+1)*q.in], q.invIn)
		if ok != nil {
			ok[r] = !clipped
		}
		mrow := mean.Data[r*q.out : (r+1)*q.out]
		srow := std.Data[r*q.out : (r+1)*q.out]
		if q.fs < 0 {
			q.run(ctx, qx, 1, 0, len(q.steps), -1, 0, mrow)
			for k := range srow {
				srow[k] = 0
			}
			continue
		}
		q.mcFrom(ctx, qx, mcRowKey(q.seedBase, xs.Row(r)), passes, mrow, srow)
	}
	q.pool.put(ctx)
	return mean, std
}
