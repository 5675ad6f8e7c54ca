package main

import (
	"errors"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// servingNN is a free-standing network of the serving shape, entered
// through nn.Compiled / nn.QuantCompiled only.
type servingNN struct {
	float *nn.Compiled
	int8  *nn.QuantCompiled
	// fitNS is what fitting it cost per sample and epoch: the shape and
	// the epochs learn_loop refits.
	fitNS float64
}

func buildServingNN() (*servingNN, error) {
	rng := xrand.New(0x22e7)
	sx, sy := tensor.NewMatrix(1024, 2), tensor.NewMatrix(1024, 1)
	for i := 0; i < sx.Rows; i++ {
		servingInput(rng, sx.Row(i))
		sy.Row(i)[0] = servingTruth(sx.Row(i))
	}
	net := nn.NewMLP(xrand.New(1), nn.Tanh, 0.1, 2, 24, 1)
	t0 := time.Now()
	if _, err := net.Fit(sx, sy, nn.TrainConfig{Epochs: learnEpochs, BatchSize: 32, Optimizer: nn.NewAdam(1e-2), Seed: 7}); err != nil {
		return nil, err
	}
	mo := &servingNN{fitNS: float64(time.Since(t0)) / float64(learnEpochs*sx.Rows)}
	if mo.float = net.Compile(); mo.float == nil {
		return nil, errors.New("nn probe: serving net did not compile")
	}
	if mo.int8 = mo.float.Quantize(sx.SliceRows(0, 256)); mo.int8 == nil {
		return nil, errors.New("nn probe: serving net did not quantize")
	}
	return mo, nil
}

// nnFitProbe times nn.Fit at the shape learn_loop refits (traced
// learn_loop: learn_loop/rows_per_s, cpu_us_per_row).
func nnFitProbe(m metrics) error {
	mo, err := buildServingNN()
	if err != nil {
		return err
	}
	m.set("nn.fit_ns_per_sample_epoch", mo.fitNS)
	return nil
}

// nnBatchProbes times, alone and on one thread, what batch_sweep spends
// its time in: compiling and quantizing a net of its shape (setup_s) and
// the float and int8 batch programs (they set that workload's
// rows_per_s, and its p50 and p99 respectively).
func nnBatchProbes(m metrics) error {
	rng := xrand.New(0x22e8)
	net := nn.NewMLP(xrand.New(2), nn.Tanh, 0.1, wideIn, wideHidden, wideHidden, wideOut)
	calib := tensor.NewMatrix(256, wideIn)
	for i := range calib.Data {
		calib.Data[i] = rng.Range(-1, 1)
	}
	t0 := time.Now()
	fl := net.CompileBatch(wideBatch)
	if fl == nil {
		return errors.New("nn probe: wide net did not compile")
	}
	q8 := fl.Quantize(calib)
	if q8 == nil {
		return errors.New("nn probe: wide net did not quantize")
	}
	m.set("nn.compile_quantize_ms", float64(time.Since(t0))/1e6)

	xs := tensor.NewMatrix(wideBatch, wideIn)
	for i := range xs.Data {
		xs.Data[i] = rng.Range(-1, 1)
	}
	mean, std := tensor.NewMatrix(wideBatch, wideOut), tensor.NewMatrix(wideBatch, wideOut)
	oks := make([]bool, wideBatch)
	singleThread(func() {
		m.set("nn.float_batch_ns_per_row", perOp(40, func() {
			fl.PredictMCBatch(xs, wideMCPasses, mean, std)
		})/wideBatch)
	})
	m.set("nn.int8_batch_ns_per_row", perOp(8, func() {
		q8.PredictMCBatch(xs, wideMCPasses, mean, std, oks)
	})/wideBatch)
	return nil
}

// nnRowProbes times the float and int8 single-row MC forwards at the
// serving shape, one thread (predicted to be under 2 % of
// routed_*/cpu_us_per_row).
func nnRowProbes(m metrics, mo *servingNN) {
	x, y, sd := []float64{0.3, -0.2}, make([]float64, 1), make([]float64, 1)
	m.set("nn.float_row_ns", perOp(50000, func() {
		mo.float.PredictMC(x, servingMCPasses, y, sd)
	}))
	m.set("nn.int8_row_ns", perOp(50000, func() {
		mo.int8.PredictMC(x, servingMCPasses, y, sd)
	}))
}

// nnRung is the bottom of the ladder: each caller runs the compiled MC
// forward for its row, nothing else.
func nnRung(mo *servingNN) func(c int) rowCall {
	return func(int) rowCall {
		return func(_ int, x, y, std []float64) (bool, error) {
			mo.float.PredictMC(x, servingMCPasses, y, std)
			return true, nil
		}
	}
}
