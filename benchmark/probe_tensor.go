package main

import (
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// singleThread runs f with tensor's row fan-out off, so a probe times
// the kernel and not the scheduler. The knob is the package's own,
// documented as settable while no work is in flight; the probes run
// after the ladder, when the stack is quiet.
func singleThread(f func()) {
	workers := tensor.ParallelWorkers
	tensor.ParallelWorkers = 1
	defer func() { tensor.ParallelWorkers = workers }()
	f()
}

// tensorProbes times the two kernels batch_sweep spends its time in, at
// that workload's shape (a 64-row block through a 128×128 panel), on one
// thread, and reports the arithmetic and the traffic of the float kernel
// as computed from the shapes — a CPU run cannot measure bytes moved.
// They should move batch_sweep/rows_per_s and nothing on routed_*.
func tensorProbes(m metrics) {
	const rows, in, out = wideBatch, wideHidden, wideHidden
	rng := xrand.New(0x7e50)
	a, b := tensor.NewMatrix(rows, in), tensor.NewMatrix(in, out)
	for i := range a.Data {
		a.Data[i] = rng.Range(-1, 1)
	}
	for i := range b.Data {
		b.Data[i] = rng.Range(-1, 1)
	}
	bias := make([]float64, out)
	dst := tensor.NewMatrix(rows, out)

	singleThread(func() {
		m.set("tensor.matmul_bias_ns_per_row", perOp(300, func() {
			tensor.MatMulBiasInto(dst, a, b, bias)
		})/rows)
	})

	q := make([]int8, in*out)
	for i := range q {
		q[i] = int8(rng.Intn(2*tensor.QuantMax+1) - tensor.QuantMax)
	}
	panel := tensor.PackQuantPanel(q, in, out)
	x := make([]int8, in)
	for i := range x {
		x[i] = int8(rng.Intn(2*tensor.QuantMax+1) - tensor.QuantMax)
	}
	acc, ux := make([]int32, out), make([]uint64, in)
	m.set("tensor.quant_sweep_ns_per_row", perOp(20000, func() {
		panel.Sweep(acc, x, ux)
	}))

	m.set("tensor.matmul_flops_per_row", 2*in*out)
	// Per row: read `in` inputs, write `out` outputs, plus the row's share
	// of one pass over the weight panel and bias.
	m.set("tensor.matmul_bytes_per_row", 8*(in+out)+8*float64(in*out+out)/rows)
}
