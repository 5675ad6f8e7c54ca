// Package core implements the paper's primary contribution: the Learning
// Everywhere / MLaroundHPC framework. It defines the Oracle (a simulation)
// and Surrogate (a learned stand-in) abstractions, the UQ-gated
// ShardedWrapper that routes queries to the surrogate when the prediction
// is trustworthy and falls back to simulation otherwise — feeding every
// fallback run back into the training set ("no run is wasted", §II-C1) —
// and the effective performance accounting of §III-D.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Oracle is a (typically expensive) simulation: the ground-truth map from
// input parameters to result features. MD codes, SEIR simulators and
// tissue models all present this face to the framework.
type Oracle interface {
	// Dims returns the input and output dimensionality.
	Dims() (in, out int)
	// Run executes the simulation for one input point.
	Run(x []float64) ([]float64, error)
}

// OracleFunc adapts a plain function into an Oracle.
type OracleFunc struct {
	In, Out int
	F       func(x []float64) ([]float64, error)
}

// Dims implements Oracle.
func (o OracleFunc) Dims() (int, int) { return o.In, o.Out }

// Run implements Oracle.
func (o OracleFunc) Run(x []float64) ([]float64, error) { return o.F(x) }

// Surrogate is a trainable approximation of an Oracle with uncertainty
// quantification (§III-B: "one must learn not just the result of a
// simulation but also the uncertainty of the prediction").
type Surrogate interface {
	// Train (re)fits the surrogate on the given samples.
	Train(x, y *tensor.Matrix) error
	// Predict returns the point prediction for one input.
	Predict(x []float64) []float64
	// PredictWithUQ returns the predictive mean and a per-output
	// uncertainty (standard deviation) in target units.
	PredictWithUQ(x []float64) (mean, std []float64)
	// Trained reports whether Train has succeeded at least once.
	Trained() bool
}

// BatchSurrogate is a Surrogate that can amortize one network pass across
// a whole batch of queries — the serving-side analogue of minibatched
// training. ShardedWrapper.QueryBatch uses it when available.
type BatchSurrogate interface {
	Surrogate
	// PredictBatchWithUQ returns per-row predictive means and stds (target
	// units) for every row of x. The returned matrices are caller-owned.
	PredictBatchWithUQ(x *tensor.Matrix) (mean, std *tensor.Matrix)
}

// BatchSurrogateInto is a BatchSurrogate that can write its batched UQ
// predictions into caller-owned matrices — the allocation-free form the
// wrapper's zero-alloc batch serving loop (QueryBatchInto) prefers.
type BatchSurrogateInto interface {
	BatchSurrogate
	// PredictBatchWithUQInto writes per-row predictive means and stds
	// (target units) into mean/std, reshaping both to x.Rows x out. Both
	// must be non-nil.
	PredictBatchWithUQInto(x, mean, std *tensor.Matrix)
}

// QuantCapable is the optional Surrogate face the wrapper's quantization
// knob drives: enabling it asks the surrogate to derive an int8 program
// on every (re)fit. A surrogate that cannot quantize simply doesn't
// implement this and the knob is a no-op.
type QuantCapable interface {
	// SetQuantize toggles quantized program compilation on future Trains.
	SetQuantize(on bool)
}

// QuantServing is the optional Surrogate face the wrapper's quantized
// serving path uses. The contract mirrors the paper's bet: approximate
// answers are fine exactly when UQ says the decision is clear-cut, so a
// quantized lookup must expose how large its approximation error can be
// (QuantGateBound) and flag inputs outside its calibrated envelope (the
// ok return) so the caller can re-decide on the retained float program.
type QuantServing interface {
	// QuantizedReady reports whether a quantized program is compiled and
	// calibrated (false e.g. for architectures that cannot quantize —
	// callers then serve the float path as usual).
	QuantizedReady() bool
	// QuantGateBound returns the guardrail half-width in target units:
	// a UQ decision landing within this distance of its threshold could
	// be flipped by the quantization delta.
	QuantGateBound() float64
	// PredictWithUQQuant is PredictWithUQ on the quantized program.
	// ok=false means the input left the calibrated envelope and the
	// result should not be trusted against the error bound.
	PredictWithUQQuant(x []float64) (mean, std []float64, ok bool)
}

// BatchQuantServing is QuantServing for the zero-alloc batch loop.
type BatchQuantServing interface {
	QuantServing
	// PredictBatchWithUQQuantInto is PredictBatchWithUQInto on the
	// quantized program; ok (len x.Rows) receives per-row envelope
	// verdicts.
	PredictBatchWithUQQuantInto(x, mean, std *tensor.Matrix, ok []bool)
}

// Brownout ladder levels. A wrapper serving under fleet brownout control
// steps down this ladder one level at a time: each level trades a little
// answer fidelity for a lot of compute headroom, and every level is
// reversible — stepping back to BrownoutOff restores the configured
// serving mode exactly.
const (
	// BrownoutOff is full fidelity: the configured serving mode.
	BrownoutOff = 0
	// BrownoutPreferQuant serves UQ lookups through the int8 quantized
	// program whenever one is compiled, even if the wrapper was not
	// configured Quantized. Surrogates without a quantized program are
	// unaffected.
	BrownoutPreferQuant = 1
	// BrownoutReducedMC additionally caps MC-dropout UQ at
	// brownoutMCPasses stochastic passes (down from the surrogate's
	// configured count) for surrogates that implement MCTunable.
	BrownoutReducedMC = 2
	// BrownoutNoUQ serves a single stochastic pass: the MC-dropout std
	// degenerates to zero, so the UQ gate always accepts and no oracle
	// fallback runs — the cheapest answer the wrapper can produce while
	// still answering.
	BrownoutNoUQ = 3
)

// brownoutMCPasses is the capped MC-dropout pass count at BrownoutReducedMC.
const brownoutMCPasses = 4

// MCTunable is the optional Surrogate face a brownout controller uses to
// cap MC-dropout passes without retraining. NNSurrogate implements it.
type MCTunable interface {
	// SetMCPassCap bounds UQ prediction to at most n stochastic passes
	// (0 removes the cap). Safe to call concurrently with serving.
	SetMCPassCap(n int)
}

// applyMCCap translates a brownout level into a surrogate's MC pass cap:
// uncapped below BrownoutReducedMC, brownoutMCPasses at it, and a single
// pass at BrownoutNoUQ (the single pass's zero variance is what turns
// the UQ gate off). Surrogates without MCTunable are left alone.
func applyMCCap(sur Surrogate, level int) {
	mt, ok := sur.(MCTunable)
	if !ok {
		return
	}
	switch {
	case level >= BrownoutNoUQ:
		mt.SetMCPassCap(1)
	case level >= BrownoutReducedMC:
		mt.SetMCPassCap(brownoutMCPasses)
	default:
		mt.SetMCPassCap(0)
	}
}

// clampBrownout bounds a requested level to the ladder.
func clampBrownout(level int) int {
	if level < BrownoutOff {
		return BrownoutOff
	}
	if level > BrownoutNoUQ {
		return BrownoutNoUQ
	}
	return level
}

// quantBand returns the quantized-serving guardrail half-width for a
// brownout level: the surrogate's calibrated bound normally, negative
// (guardrail off, envelope check still applies) at BrownoutNoUQ — there
// the gate is vacuous, so a float re-run of boundary decisions would
// throw away exactly the compute the brownout is trying to save.
func quantBand(qs QuantServing, level int32) float64 {
	if level >= BrownoutNoUQ {
		return -1
	}
	return qs.QuantGateBound()
}

// NNSurrogate is the reference Surrogate: a dropout MLP trained on
// standardized features/targets, with MC-dropout UQ.
type NNSurrogate struct {
	// Hidden lists hidden-layer widths (e.g. 30, 48 per §III-D).
	Hidden []int
	// Dropout is the dropout probability powering MC-dropout UQ.
	Dropout float64
	// MCPasses is the number of stochastic forward passes for UQ.
	MCPasses int
	// MaxBatch is the compiled batch-program chunk width: the largest row
	// count one fused batch pass serves. Wider batches are split
	// internally, so any batch size works; this only tunes the pooled
	// scratch footprint versus per-pass amortization. 0 selects
	// nn.DefaultMaxBatch.
	MaxBatch int
	// Train hyperparameters.
	Epochs    int
	BatchSize int
	LR        float64
	// Quantize asks Train to additionally derive an int8 quantized
	// program from the compiled float program, calibrated against a
	// held-out slice of the training window. The float program is always
	// retained — it is both the refit baseline and the guardrail
	// fallback the quantized serving path re-runs boundary decisions on.
	Quantize bool

	rng       *xrand.Rand
	inDim     int
	outDim    int
	net       *nn.Network
	compiled  *nn.Compiled      // fused inference program, rebuilt by Train
	qcompiled *nn.QuantCompiled // int8 program (Quantize mode), rebuilt by Train
	qgate     float64           // quant guardrail half-width, target units
	xScaler   *nn.Scaler
	yScaler   *nn.Scaler
	trained   bool

	inPool    sync.Pool // *[]float64 scaled-input staging, len inDim
	stagePool sync.Pool // *tensor.Matrix scaled-batch staging

	// mcCap bounds UQ passes under brownout (0 = uncapped); atomic so a
	// controller can move it while serving threads are mid-predict.
	mcCap atomic.Int32
}

// SetMCPassCap implements MCTunable: bound UQ prediction to at most n
// stochastic passes (0 removes the cap).
func (s *NNSurrogate) SetMCPassCap(n int) { s.mcCap.Store(int32(n)) }

// passes is the effective MC-dropout pass count: MCPasses bounded by the
// brownout cap when one is set.
func (s *NNSurrogate) passes() int {
	p := s.MCPasses
	if c := int(s.mcCap.Load()); c > 0 && c < p {
		p = c
	}
	return p
}

// getIn leases a pooled scaled-input buffer; putIn returns it.
func (s *NNSurrogate) getIn() *[]float64 {
	if p, ok := s.inPool.Get().(*[]float64); ok {
		return p
	}
	buf := make([]float64, s.inDim)
	return &buf
}

func (s *NNSurrogate) putIn(p *[]float64) { s.inPool.Put(p) }

// batchWidth returns the compiled batch chunk width.
func (s *NNSurrogate) batchWidth() int {
	if s.MaxBatch > 0 {
		return s.MaxBatch
	}
	return nn.DefaultMaxBatch
}

// getStage leases a pooled staging matrix holding the standardized copy
// of x; putStage returns it.
func (s *NNSurrogate) getStage(x *tensor.Matrix) *tensor.Matrix {
	m, ok := s.stagePool.Get().(*tensor.Matrix)
	if !ok {
		m = tensor.NewMatrix(x.Rows, x.Cols)
	}
	return s.xScaler.TransformInto(m, x)
}

func (s *NNSurrogate) putStage(m *tensor.Matrix) { s.stagePool.Put(m) }

// unscaleRows maps standardized mean rows (and, when std is non-nil,
// predictive std rows) back to target units in place.
func (s *NNSurrogate) unscaleRows(mean, std *tensor.Matrix) {
	for i := 0; i < mean.Rows; i++ {
		mrow := mean.Row(i)
		for j := range mrow {
			mrow[j] = mrow[j]*s.yScaler.Std[j] + s.yScaler.Mean[j]
		}
		if std != nil {
			srow := std.Row(i)
			for j := range srow {
				srow[j] = s.yScaler.InverseScale(j, srow[j])
			}
		}
	}
}

// NewNNSurrogate builds an untrained surrogate for an in→out mapping.
func NewNNSurrogate(in, out int, hidden []int, dropout float64, rng *xrand.Rand) *NNSurrogate {
	return &NNSurrogate{
		Hidden: hidden, Dropout: dropout, MCPasses: 30,
		Epochs: 200, BatchSize: 32, LR: 1e-2,
		rng: rng, inDim: in, outDim: out,
	}
}

// Train implements Surrogate; it refits from a fresh initialization so the
// surrogate reflects exactly the data provided.
func (s *NNSurrogate) Train(x, y *tensor.Matrix) error {
	if x.Rows == 0 {
		return errors.New("core: cannot train surrogate on empty dataset")
	}
	if x.Cols != s.inDim || y.Cols != s.outDim {
		return fmt.Errorf("core: surrogate expects %d→%d, got %d→%d", s.inDim, s.outDim, x.Cols, y.Cols)
	}
	s.xScaler = nn.FitScaler(x)
	s.yScaler = nn.FitScaler(y)
	xs := s.xScaler.Transform(x)
	ys := s.yScaler.Transform(y)
	widths := append([]int{s.inDim}, append(append([]int(nil), s.Hidden...), s.outDim)...)
	s.net = nn.NewMLP(s.rng.Split(), nn.Tanh, s.Dropout, widths...)
	_, err := s.net.Fit(xs, ys, nn.TrainConfig{
		Epochs: s.Epochs, BatchSize: s.BatchSize,
		Optimizer: nn.NewAdam(s.LR), Seed: s.rng.Uint64(),
	})
	if err != nil {
		return fmt.Errorf("core: surrogate training: %w", err)
	}
	// Compile the fused inference program — single-point serving runs it
	// instead of the interpreted layer graph, and the batch entry points
	// run its chunked batch form (nil means an uncompilable architecture;
	// the flexible path below then serves).
	s.compiled = s.net.CompileBatch(s.batchWidth())
	s.qcompiled = nil
	s.qgate = 0
	if s.Quantize && s.compiled != nil {
		// Calibrate against a held-out tail of the training window: the
		// most recent quarter (capped at 256 rows) fixes the input
		// envelope and measures the realistic quantization error that
		// sizes the serving guardrail band.
		n := xs.Rows / 4
		if n < 1 {
			n = 1
		}
		if n > 256 {
			n = 256
		}
		calib := xs.SliceRows(xs.Rows-n, xs.Rows)
		s.qcompiled = s.compiled.Quantize(calib)
		if s.qcompiled != nil {
			g := 0.0
			for j := 0; j < s.outDim; j++ {
				if b := s.yScaler.InverseScale(j, s.qcompiled.GateBound()); b > g {
					g = b
				}
			}
			s.qgate = g
		}
	}
	s.trained = true
	return nil
}

// SetQuantize implements QuantCapable: the next Train derives (or stops
// deriving) the int8 program.
func (s *NNSurrogate) SetQuantize(on bool) { s.Quantize = on }

// QuantizedReady implements QuantServing.
func (s *NNSurrogate) QuantizedReady() bool { return s.trained && s.qcompiled != nil }

// QuantGateBound implements QuantServing: the guardrail half-width in
// target units, min(guaranteed bound, 8× calibrated error) mapped
// through the target scaler.
func (s *NNSurrogate) QuantGateBound() float64 { return s.qgate }

// QuantErrorBound returns the guaranteed worst-case |quantized − float|
// output delta in target units for in-envelope inputs (0 when no
// quantized program is compiled).
func (s *NNSurrogate) QuantErrorBound() float64 {
	if s.qcompiled == nil {
		return 0
	}
	b := 0.0
	for j := 0; j < s.outDim; j++ {
		if v := s.yScaler.InverseScale(j, s.qcompiled.ErrorBound()); v > b {
			b = v
		}
	}
	return b
}

// PredictWithUQQuant implements QuantServing: PredictWithUQ served from
// the int8 program. When no quantized program is available it degrades
// to the float path (ok=true — the float answer is exact). Allocation
// profile matches PredictWithUQ: one result allocation per call.
func (s *NNSurrogate) PredictWithUQQuant(x []float64) (mean, std []float64, ok bool) {
	s.mustBeTrained()
	q := s.qcompiled
	if q == nil {
		mean, std = s.PredictWithUQ(x)
		return mean, std, true
	}
	res := make([]float64, 2*s.outDim)
	mean, std = res[:s.outDim:s.outDim], res[s.outDim:]
	in := s.getIn()
	s.xScaler.TransformVecInto(*in, x)
	_, _, ok = q.PredictMC(*in, s.passes(), mean, std)
	s.putIn(in)
	for j := 0; j < s.outDim; j++ {
		mean[j] = mean[j]*s.yScaler.Std[j] + s.yScaler.Mean[j]
		std[j] = s.yScaler.InverseScale(j, std[j])
	}
	return mean, std, ok
}

// PredictBatchWithUQQuantInto implements BatchQuantServing: the batched
// MC-dropout pass on the int8 program, with per-row envelope verdicts
// in ok. A warmed call with caller-provided buffers allocates nothing.
func (s *NNSurrogate) PredictBatchWithUQQuantInto(x, mean, std *tensor.Matrix, ok []bool) {
	s.mustBeTrained()
	q := s.qcompiled
	if q == nil {
		s.PredictBatchWithUQInto(x, mean, std)
		for i := range ok {
			ok[i] = true
		}
		return
	}
	xs := s.getStage(x)
	q.PredictMCBatch(xs, s.passes(), mean, std, ok)
	s.putStage(xs)
	s.unscaleRows(mean, std)
}

// Predict implements Surrogate. When the network compiled, the forward
// pass runs the fused program with a pooled input staging buffer: the
// only allocation left is the returned result vector.
func (s *NNSurrogate) Predict(x []float64) []float64 {
	s.mustBeTrained()
	out := make([]float64, s.outDim)
	if c := s.compiled; c != nil {
		in := s.getIn()
		s.xScaler.TransformVecInto(*in, x)
		c.Predict(*in, out)
		s.putIn(in)
	} else {
		copy(out, s.net.Predict(s.xScaler.TransformVec(x)))
	}
	for j := range out {
		out[j] = out[j]*s.yScaler.Std[j] + s.yScaler.Mean[j]
	}
	return out
}

// PredictWithUQ implements Surrogate using MC dropout; with Dropout == 0
// the std is identically zero (a deterministic surrogate claims perfect
// confidence, which is why the wrapper requires Dropout > 0 to gate).
// On the compiled path the MC passes run allocation-free; mean and std
// share one backing array, so a served query costs a single allocation.
func (s *NNSurrogate) PredictWithUQ(x []float64) (mean, std []float64) {
	s.mustBeTrained()
	res := make([]float64, 2*s.outDim)
	// Cap the mean slice so an appending caller can never grow into std.
	mean, std = res[:s.outDim:s.outDim], res[s.outDim:]
	if c := s.compiled; c != nil {
		in := s.getIn()
		s.xScaler.TransformVecInto(*in, x)
		c.PredictMC(*in, s.passes(), mean, std)
		s.putIn(in)
	} else {
		m, sd := s.net.PredictMC(s.xScaler.TransformVec(x), s.passes())
		copy(mean, m)
		copy(std, sd)
	}
	for j := 0; j < s.outDim; j++ {
		mean[j] = mean[j]*s.yScaler.Std[j] + s.yScaler.Mean[j]
		std[j] = s.yScaler.InverseScale(j, std[j])
	}
	return mean, std
}

// PredictBatch returns point predictions (original units) for every row
// of x. On the compiled path the whole batch runs through the fused
// batch program (split into MaxBatch-row chunks internally); only the
// returned matrix is allocated.
func (s *NNSurrogate) PredictBatch(x *tensor.Matrix) *tensor.Matrix {
	s.mustBeTrained()
	var out *tensor.Matrix
	if c := s.compiled; c != nil {
		xs := s.getStage(x)
		out = c.PredictBatch(xs, tensor.NewMatrix(x.Rows, s.outDim))
		s.putStage(xs)
	} else {
		out = s.net.PredictBatch(s.xScaler.Transform(x))
	}
	s.unscaleRows(out, nil)
	return out
}

// PredictBatchWithUQ implements BatchSurrogate using batched MC dropout.
// The returned matrices are caller-owned; hot loops that manage their own
// buffers use PredictBatchWithUQInto.
func (s *NNSurrogate) PredictBatchWithUQ(x *tensor.Matrix) (mean, std *tensor.Matrix) {
	mean = tensor.NewMatrix(x.Rows, s.outDim)
	std = tensor.NewMatrix(x.Rows, s.outDim)
	s.PredictBatchWithUQInto(x, mean, std)
	return mean, std
}

// PredictBatchWithUQInto implements BatchSurrogateInto. On the compiled
// path the MCPasses stochastic evaluations run pass-stacked — every pass
// of a chunk shares one tall fused matmul per dense stage instead of
// replaying the suffix per pass — and a warmed call with caller-provided
// matrices performs zero heap allocations, for any batch width.
func (s *NNSurrogate) PredictBatchWithUQInto(x, mean, std *tensor.Matrix) {
	s.mustBeTrained()
	if c := s.compiled; c != nil {
		xs := s.getStage(x)
		c.PredictMCBatch(xs, s.passes(), mean, std)
		s.putStage(xs)
	} else {
		m, sd := s.net.PredictMCBatch(s.xScaler.Transform(x), s.passes())
		mean.Reshape(x.Rows, s.outDim)
		std.Reshape(x.Rows, s.outDim)
		copy(mean.Data, m.Data)
		copy(std.Data, sd.Data)
	}
	s.unscaleRows(mean, std)
}

// Trained implements Surrogate.
func (s *NNSurrogate) Trained() bool { return s.trained }

func (s *NNSurrogate) mustBeTrained() {
	if !s.trained {
		panic("core: surrogate used before training")
	}
}

// Source identifies which path answered a wrapper query.
type Source int

// Query answer provenance.
const (
	FromSimulation Source = iota
	FromSurrogate
)

// String returns the source name.
func (s Source) String() string {
	if s == FromSurrogate {
		return "surrogate"
	}
	return "simulation"
}

// PublishHook observes a freshly trained surrogate the moment it starts
// serving: shard is the owning shard index, sur the model now published,
// residBase its publish-time in-sample residual (the drift baseline; 0
// when neither drift tracking nor a hook consumes it). Hooks run
// synchronously on the training path — after the swap, never blocking
// readers — and must not call back into the wrapper.
type PublishHook func(shard int, sur Surrogate, residBase float64)

// quantLookupOne serves one UQ lookup from a quantized program with the
// float-fallback guardrail: when the input clipped against the
// calibrated envelope, or the gating std lands within band of the
// threshold (the quantization delta could flip the accept/reject
// decision), the query re-runs on the retained float program and that
// answer decides. A negative band disables the boundary re-run (the
// envelope check still applies).
func quantLookupOne(qs QuantServing, sur Surrogate, x []float64, threshold, band float64, queries, fallbacks *atomic.Uint64) (mean, sd []float64) {
	mean, sd, inRange := qs.PredictWithUQQuant(x)
	queries.Add(1)
	if !inRange || math.Abs(maxOf(sd)-threshold) <= band {
		fallbacks.Add(1)
		mean, sd = sur.PredictWithUQ(x)
	}
	return mean, sd
}

// quantGuardBatch applies the guardrail to a quantized batch answer:
// rows whose input clipped (ok=false) or whose gating std lands within
// band of the threshold are re-run on the float program, overwriting
// their mean/std rows in place, so the subsequent gate loop decides on
// exact numbers. xs rows align with answer rows.
func quantGuardBatch(sur Surrogate, xs *tensor.Matrix, mean, std *tensor.Matrix, oks []bool, threshold, band float64, fallbacks *atomic.Uint64) {
	for k := 0; k < mean.Rows; k++ {
		sd := std.Row(k)
		if !oks[k] || math.Abs(maxOf(sd)-threshold) <= band {
			fallbacks.Add(1)
			fm, fsd := sur.PredictWithUQ(xs.Row(k))
			copy(mean.Row(k), fm)
			copy(sd, fsd)
		}
	}
}

// BatchResult is the answer to one row of a QueryBatch call.
type BatchResult struct {
	Y   []float64
	Src Source
	Std []float64 // non-nil only for surrogate answers
	Err error     // per-row oracle failure
}

// setRow stores one surrogate answer in res[i], reusing the row's Y/Std
// capacity so steady-state batch loops never reallocate.
func setRow(res []BatchResult, i int, mean, sd []float64) {
	res[i].Y = append(res[i].Y[:0], mean...)
	res[i].Std = append(res[i].Std[:0], sd...)
	res[i].Src = FromSurrogate
	res[i].Err = nil
}

// gateBatchRows applies the UQ gate to every row of one shard's batched
// surrogate answer: passing rows are stored in res (into the caller's
// reused buffers when reuse is set, aliasing the surrogate's matrices
// otherwise) and failing rows are appended to miss. idx maps answer rows
// to res indices.
func gateBatchRows(res []BatchResult, miss, idx []int, mean, std *tensor.Matrix, threshold float64, reuse bool) (newMiss []int, served, rejected int) {
	for k := 0; k < mean.Rows; k++ {
		i := idx[k]
		sd := std.Row(k)
		if maxOf(sd) <= threshold {
			if reuse {
				setRow(res, i, mean.Row(k), sd)
			} else {
				res[i] = BatchResult{Y: mean.Row(k), Src: FromSurrogate, Std: sd}
			}
			served++
		} else {
			miss = append(miss, i)
			rejected++
		}
	}
	return miss, served, rejected
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}
