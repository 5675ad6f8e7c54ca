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
	"sync"

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
// simulation but also the uncertainty of the prediction"). The contract is
// batch-first — a single query is a batch of one row (Predict and
// PredictWithUQ run it for callers that hold one vector).
type Surrogate interface {
	// Train (re)fits the surrogate on the given samples.
	Train(x, y *tensor.Matrix) error
	// Trained reports whether Train has succeeded at least once.
	Trained() bool
	// PredictInto writes the prediction for every row of x into the
	// caller-owned mean and std, reshaping both to x.Rows x out, in target
	// units: the predictive mean and a per-output uncertainty (standard
	// deviation). A nil std asks for the deterministic point prediction
	// alone — no stochastic pass, the same answer on every call. Safe for
	// concurrent use once trained; it panics before.
	PredictInto(x, mean, std *tensor.Matrix)
}

// Predict returns sur's deterministic point prediction for one input.
func Predict(sur Surrogate, x []float64) []float64 {
	var mean tensor.Matrix
	sur.PredictInto(&tensor.Matrix{Rows: 1, Cols: len(x), Data: x}, &mean, nil)
	return mean.Data
}

// PredictWithUQ returns sur's predictive mean and per-output standard
// deviation for one input.
func PredictWithUQ(sur Surrogate, x []float64) (mean, std []float64) {
	var m, s tensor.Matrix
	sur.PredictInto(&tensor.Matrix{Rows: 1, Cols: len(x), Data: x}, &m, &s)
	return m.Data, s.Data
}

// Degradable is the one optional extension of Surrogate: the int8
// quantized serving mode that ShardedConfig.Quantized turns on. The
// contract mirrors the paper's bet — approximate answers are fine exactly
// when UQ says the decision is clear-cut — so a quantized pass must expose
// how large its approximation error can be (QuantGateBound) and flag
// inputs outside its calibrated envelope (ok) so the wrapper can re-decide
// those rows with PredictInto. A surrogate without it is always served
// through PredictInto.
type Degradable interface {
	Surrogate
	// SetQuantize toggles deriving an int8 program on future Trains.
	SetQuantize(on bool)
	// QuantizedReady reports whether a quantized program is compiled and
	// calibrated; PredictQuantInto may only be called when it is.
	QuantizedReady() bool
	// QuantGateBound returns the guardrail half-width in target units:
	// a UQ decision landing within this distance of its threshold could
	// be flipped by the quantization delta.
	QuantGateBound() float64
	// PredictQuantInto is PredictInto (std non-nil) on the quantized
	// program; ok (len x.Rows) receives per-row envelope verdicts, false
	// meaning the row left the calibrated envelope and its answer should
	// not be trusted against the bound.
	PredictQuantInto(x, mean, std *tensor.Matrix, ok []bool)
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
	compiled  *nn.Compiled      // fused inference program, the weights; rebuilt by Train
	qcompiled *nn.QuantCompiled // int8 program (Quantize mode), rebuilt by Train
	qgate     float64           // quant guardrail half-width, target units
	xScaler   *nn.Scaler
	yScaler   *nn.Scaler
	trained   bool

	stagePool sync.Pool // *tensor.Matrix scaled-batch staging
}

// batchWidth returns the compiled batch chunk width.
func (s *NNSurrogate) batchWidth() int {
	if s.MaxBatch > 0 {
		return s.MaxBatch
	}
	return nn.DefaultMaxBatch
}

// getStage leases a pooled staging matrix holding the standardized copy
// of x; the caller returns it to stagePool.
func (s *NNSurrogate) getStage(x *tensor.Matrix) *tensor.Matrix {
	m, ok := s.stagePool.Get().(*tensor.Matrix)
	if !ok {
		m = tensor.NewMatrix(x.Rows, x.Cols)
	}
	return s.xScaler.TransformInto(m, x)
}

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
	net := nn.NewMLP(s.rng.Split(), nn.Tanh, s.Dropout, widths...)
	_, err := net.Fit(xs, ys, nn.TrainConfig{
		Epochs: s.Epochs, BatchSize: s.BatchSize,
		Optimizer: nn.NewAdam(s.LR), Seed: s.rng.Uint64(),
	})
	if err != nil {
		return fmt.Errorf("core: surrogate training: %w", err)
	}
	// Compile the inference program every prediction runs on — the only
	// form the weights keep; the layer graph dies with this call. An MLP
	// always has a dense layer, so the program always exists.
	s.compiled = net.CompileBatch(s.batchWidth())
	s.qcompiled = nil
	s.qgate = 0
	if s.Quantize {
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

// SetQuantize implements Degradable: the next Train derives (or stops
// deriving) the int8 program.
func (s *NNSurrogate) SetQuantize(on bool) { s.Quantize = on }

// QuantizedReady implements Degradable (false e.g. for architectures that
// cannot quantize — the wrapper then serves the float program as usual).
func (s *NNSurrogate) QuantizedReady() bool { return s.trained && s.qcompiled != nil }

// QuantGateBound implements Degradable: the guardrail half-width in
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

// PredictQuantInto implements Degradable: the batched MC-dropout pass on
// the int8 program, with per-row envelope verdicts in ok. A warmed call
// allocates nothing.
func (s *NNSurrogate) PredictQuantInto(x, mean, std *tensor.Matrix, ok []bool) {
	if !s.QuantizedReady() {
		panic("core: quantized pass without a quantized program")
	}
	xs := s.getStage(x)
	s.qcompiled.PredictMCBatch(xs, s.MCPasses, mean, std, ok)
	s.stagePool.Put(xs)
	s.unscaleRows(mean, std)
}

// PredictInto implements Surrogate on the compiled batch program. With
// std it is MC dropout: the MCPasses stochastic evaluations run
// pass-stacked — the passes of a MaxBatch-row chunk share one fused matmul
// per dense stage and pass group, over panels that do not grow with
// MCPasses. With Dropout == 0 the std is identically zero (a deterministic
// surrogate claims perfect confidence, which is why the wrapper requires
// Dropout > 0 to gate). Without std it is one eval-mode pass. A warmed
// call allocates nothing, for any batch width.
func (s *NNSurrogate) PredictInto(x, mean, std *tensor.Matrix) {
	s.mustBeTrained()
	xs := s.getStage(x)
	if std == nil {
		s.compiled.PredictBatch(xs, mean)
	} else {
		s.compiled.PredictMCBatch(xs, s.MCPasses, mean, std)
	}
	s.stagePool.Put(xs)
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
// surrogate answer: passing rows are copied into res (reusing each row's
// buffers; mean and std are pooled scratch) and failing rows are appended
// to miss. idx maps answer rows to res indices.
func gateBatchRows(res []BatchResult, miss, idx []int, mean, std *tensor.Matrix, threshold float64) (newMiss []int, served, rejected int) {
	for k := 0; k < mean.Rows; k++ {
		i := idx[k]
		sd := std.Row(k)
		if maxOf(sd) <= threshold {
			setRow(res, i, mean.Row(k), sd)
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
