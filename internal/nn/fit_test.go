package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// referenceFit is Fit written against the layer graph: the same data
// order (a seeded permutation, then a Fisher–Yates shuffle an epoch), and
// for every minibatch refGraph.forward(x, true) → MSE → refGraph.backward
// → Adam stepped on each layer's weights and biases as pairs of their own.
// Fit's tape is held to it bit for bit.
func referenceFit(ref *refGraph, x, y *tensor.Matrix, cfg TrainConfig) (*History, error) {
	rng := xrand.New(cfg.Seed + 0x5eed)
	trainIdx := rng.Perm(x.Rows)
	hist := &History{}
	opts := make([]*Adam, 2*len(ref.n.layers))
	for i := range opts {
		opts[i] = NewAdam(cfg.Optimizer.LR)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
		epochLoss, batches := 0.0, 0
		for start := 0; start < len(trainIdx); start += cfg.BatchSize {
			idx := trainIdx[start:min(start+cfg.BatchSize, len(trainIdx))]
			bx := tensor.GatherRowsInto(nil, x, idx)
			by := tensor.GatherRowsInto(nil, y, idx)
			pred := ref.forward(bx, true)
			loss := MSE{}.Value(pred, by)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return hist, ErrDiverged
			}
			epochLoss += loss
			batches++
			ref.backward(MSE{}.Grad(nil, pred, by))
			for i := range ref.n.layers {
				l := &ref.n.layers[i]
				opts[2*i].Step(l.weights(ref.n.slab), l.weights(ref.grad))
				opts[2*i+1].Step(l.bias(ref.n.slab), l.bias(ref.grad))
			}
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(batches))
	}
	return hist, nil
}

// TestFitMatchesLayerReference trains the same seed through Fit's tape and
// through referenceFit and compares every parameter, the gradients the last
// step left, the loss history and the position of the dropout stream bit
// for bit.
func TestFitMatchesLayerReference(t *testing.T) {
	type tc struct {
		name        string
		build       func(rng *xrand.Rand) *Network
		rows, batch int
		epochs      int
	}
	mlp := func(act Activation, drop float64, widths ...int) func(*xrand.Rand) *Network {
		return func(rng *xrand.Rand) *Network { return NewMLP(rng, act, drop, widths...) }
	}
	// dropped builds a network with the given input dropouts per layer.
	dropped := func(acts []Activation, drops []float64, widths ...int) func(*xrand.Rand) *Network {
		return func(rng *xrand.Rand) *Network {
			n := NewNetwork(rng, acts, widths...)
			for i, p := range drops {
				n.layers[i].p = p
			}
			return n
		}
	}
	cases := []tc{
		{name: "serving 2-24-1", build: mlp(Tanh, 0.1, 2, 24, 1), rows: 200, batch: 32, epochs: 6},
		{name: "paper 6-30-48-3, two dropouts, early stop", build: mlp(Tanh, 0.1, 6, 30, 48, 3), rows: 150, batch: 32, epochs: 40},
		{name: "wide 8-128-128-4", build: mlp(Tanh, 0.1, 8, 128, 128, 4), rows: 100, batch: 64, epochs: 2},
		{name: "no hidden layer 3-5", build: mlp(Tanh, 0, 3, 5), rows: 50, batch: 16, epochs: 5},
		{name: "relu, no dropout, momentum", build: mlp(ReLU, 0, 6, 30, 48, 3), rows: 70, batch: 32, epochs: 5},
		{name: "sigmoid, plain sgd, batch larger than the data", build: mlp(Sigmoid, 0.1, 2, 24, 1), rows: 20, batch: 64, epochs: 5},
		{name: "one input, tail batch of one", build: mlp(Tanh, 0.1, 1, 8, 1), rows: 33, batch: 8, epochs: 4},
		{name: "dropout behind an identity layer, a P=0 dropout",
			build: dropped([]Activation{Identity, Tanh, Identity}, []float64{0, 0.3, 0}, 3, 7, 5, 2), rows: 40, batch: 16, epochs: 4},
		{name: "dropout on the input, branch-shaped tanh output",
			build: dropped([]Activation{Tanh, Tanh}, []float64{0.25, 0.1}, 5, 9, 4), rows: 37, batch: 16, epochs: 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := xrand.New(17)
			nets := [2]*Network{c.build(xrand.New(99)), c.build(xrand.New(99))}
			in, out := nets[0].layers[0].in, nets[0].layers[len(nets[0].layers)-1].out
			x, y := tensor.NewMatrix(c.rows, in), tensor.NewMatrix(c.rows, out)
			for i := range x.Data {
				x.Data[i] = data.Range(-1, 1)
			}
			x.Data[0], x.Data[in] = 0, 0 // a zero feature takes the matmul's skipped-axpy order
			for i := range y.Data {
				y.Data[i] = data.Range(-1, 1)
			}
			cfg := func() TrainConfig {
				return TrainConfig{Epochs: c.epochs, BatchSize: c.batch, Optimizer: NewAdam(1e-2), Seed: 7}
			}
			tape := nets[0].Tape(min(c.batch, c.rows)) // what Fit runs
			got, err := tape.fit(x, y, cfg())
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefGraph(nets[1])
			want, err := referenceFit(ref, x, y, cfg())
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.TrainLoss, want.TrainLoss) {
				t.Fatalf("history %+v, the layer graph's is %+v", got, want)
			}
			val, grad := tape.Params()
			for i := range nets[0].layers {
				l := &nets[0].layers[i]
				if !sameBits(l.weights(val), l.weights(nets[1].slab)) || !sameBits(l.bias(val), l.bias(nets[1].slab)) {
					t.Fatalf("layer %d's parameters differ from the layer graph's", i)
				}
				if !sameBits(l.weights(grad), l.weights(ref.grad)) || !sameBits(l.bias(grad), l.bias(ref.grad)) {
					t.Fatalf("layer %d's gradients differ from the layer graph's", i)
				}
			}
			if nets[0].rng.Uint64() != nets[1].rng.Uint64() {
				t.Fatal("Fit left the dropout stream somewhere else")
			}
		})
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFitEpochZeroAlloc: everything a fit needs is made before its first
// epoch, so two fits that differ only in their epoch count allocate alike.
func TestFitEpochZeroAlloc(t *testing.T) {
	rng := xrand.New(3)
	x, y := tensor.NewMatrix(100, 2), tensor.NewMatrix(100, 1)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	net := NewMLP(rng, Tanh, 0.1, 2, 24, 1)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			cfg := TrainConfig{Epochs: epochs, BatchSize: 32, Optimizer: NewAdam(1e-3), Seed: 1}
			if _, err := net.Fit(x, y, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(21); one != many {
		t.Fatalf("a 1-epoch fit allocates %g times, a 21-epoch fit %g: an epoch allocates", one, many)
	}
}

// TestFitRejectsWrongWidths: data whose widths are not the network's is an
// error, not a fit on misaligned targets or a panic inside the tape.
func TestFitRejectsWrongWidths(t *testing.T) {
	for _, c := range []struct {
		name         string
		widths       []int
		xCols, yCols int
	}{
		{"y wider than the one output", []int{2, 24, 1}, 2, 2},
		{"y narrower than three outputs", []int{2, 24, 3}, 2, 2},
		{"x narrower than the inputs", []int{3, 24, 1}, 2, 1},
		{"x wider than the inputs", []int{2, 24, 1}, 3, 1},
	} {
		rng := xrand.New(5)
		x, y := tensor.NewMatrix(64, c.xCols), tensor.NewMatrix(64, c.yCols)
		for i := range x.Data {
			x.Data[i] = rng.Range(-1, 1)
		}
		net := NewMLP(rng, Tanh, 0.1, c.widths...)
		if _, err := net.Fit(x, y, TrainConfig{Epochs: 1, Seed: 1}); err == nil {
			t.Errorf("%s: Fit of %d-wide x and %d-wide y on %v returned no error", c.name, c.xCols, c.yCols, c.widths)
		}
	}
}

// TestFitReleasesArena: Fit trains the network's slab in place, so after
// it the network holds the trained values in the array it had before and
// nothing of the fit's arena is reachable through it.
func TestFitReleasesArena(t *testing.T) {
	rng := xrand.New(4)
	net := NewMLP(rng, Tanh, 0.1, 2, 24, 1)
	own, w0 := &net.slab[0], net.slab[0]
	x, y := tensor.NewMatrix(64, 2), tensor.NewMatrix(64, 1)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	if _, err := net.Fit(x, y, TrainConfig{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if &net.slab[0] != own || cap(net.slab) != len(net.slab) || len(net.slab) != len(net.slab) {
		t.Fatal("the parameters no longer live in the network's own slab")
	}
	if net.slab[0] == w0 {
		t.Fatal("Fit did not train the slab")
	}
}
