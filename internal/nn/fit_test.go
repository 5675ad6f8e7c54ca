package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// referenceFit is Fit written against the layer graph: the same data
// order (a seeded permutation, then a Fisher–Yates shuffle an epoch), and
// for every minibatch Network.Forward(x, true) → MSE → Network.Backward →
// Adam stepped with the layers' own parameter pairs. Fit's step program is
// held to it bit for bit.
func referenceFit(n *Network, x, y *tensor.Matrix, cfg TrainConfig) (*History, error) {
	rng := xrand.New(cfg.Seed + 0x5eed)
	trainIdx := rng.Perm(x.Rows)
	hist := &History{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
		epochLoss, batches := 0.0, 0
		for start := 0; start < len(trainIdx); start += cfg.BatchSize {
			idx := trainIdx[start:min(start+cfg.BatchSize, len(trainIdx))]
			bx := tensor.GatherRowsInto(nil, x, idx)
			by := tensor.GatherRowsInto(nil, y, idx)
			pred := n.Forward(bx, true)
			loss := MSE{}.Value(pred, by)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return hist, ErrDiverged
			}
			epochLoss += loss
			batches++
			n.Backward(MSE{}.Grad(nil, pred, by))
			cfg.Optimizer.Step(n.Params())
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(batches))
	}
	return hist, nil
}

// TestFitMatchesLayerReference trains the same seed through Fit and through
// referenceFit and compares every parameter, the gradients the last step
// left, the loss history and the position of the dropout stream bit for bit.
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
	cases := []tc{
		{name: "serving 2-24-1", build: mlp(Tanh, 0.1, 2, 24, 1), rows: 200, batch: 32, epochs: 6},
		{name: "paper 6-30-48-3, two dropouts, early stop", build: mlp(Tanh, 0.1, 6, 30, 48, 3), rows: 150, batch: 32, epochs: 40},
		{name: "wide 8-128-128-4", build: mlp(Tanh, 0.1, 8, 128, 128, 4), rows: 100, batch: 64, epochs: 2},
		{name: "no hidden layer 3-5", build: mlp(Tanh, 0, 3, 5), rows: 50, batch: 16, epochs: 5},
		{name: "relu, no dropout, momentum", build: mlp(ReLU, 0, 6, 30, 48, 3), rows: 70, batch: 32, epochs: 5},
		{name: "sigmoid, plain sgd, batch larger than the data", build: mlp(Sigmoid, 0.1, 2, 24, 1), rows: 20, batch: 64, epochs: 5},
		{name: "one input, tail batch of one", build: mlp(Tanh, 0.1, 1, 8, 1), rows: 33, batch: 8, epochs: 4},
		{name: "dropout behind an identity layer, a P=0 dropout", build: func(rng *xrand.Rand) *Network {
			return NewNetwork(rng, NewDense(3, 7, Identity, rng), NewDropout(0.3), NewDense(7, 5, Tanh, rng), NewDropout(0), NewDense(5, 2, Identity, rng))
		}, rows: 40, batch: 16, epochs: 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := xrand.New(17)
			nets := [2]*Network{c.build(xrand.New(99)), c.build(xrand.New(99))}
			in, out, _ := nets[0].Dims()
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
			got, err := nets[0].Fit(x, y, cfg())
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceFit(nets[1], x, y, cfg())
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.TrainLoss, want.TrainLoss) {
				t.Fatalf("history %+v, the layer graph's is %+v", got, want)
			}
			wantParams := nets[1].Params()
			for i, p := range nets[0].Params() {
				if !sameBits(p.Value.Data, wantParams[i].Value.Data) {
					t.Fatalf("parameter %d differs from the layer graph's", i)
				}
				if !sameBits(p.Grad.Data, wantParams[i].Grad.Data) {
					t.Fatalf("gradient %d differs from the layer graph's", i)
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

// TestFitReleasesArena: after Fit the network's parameter matrices are the
// ones it had before, holding the trained values — nothing of the fit's
// slab stays reachable through them.
func TestFitReleasesArena(t *testing.T) {
	rng := xrand.New(4)
	net := NewMLP(rng, Tanh, 0.1, 2, 24, 1)
	before := net.Params()
	own := make([]*float64, len(before))
	for i, p := range before {
		own[i] = &p.Value.Data[0]
	}
	x, y := tensor.NewMatrix(64, 2), tensor.NewMatrix(64, 1)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	w0 := before[0].Value.Data[0]
	if _, err := net.Fit(x, y, TrainConfig{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		if &p.Value.Data[0] != own[i] || cap(p.Value.Data) != len(p.Value.Data) {
			t.Fatalf("parameter %d no longer lives in the network's own storage", i)
		}
	}
	if before[0].Value.Data[0] == w0 {
		t.Fatal("the trained weights were not copied back")
	}
}

// TestFitRejectsUnknownLayer: like Compile, Fit has no interpreted path for
// a Layer from outside the package, nor for a Dropout with no Dense in
// front of it.
func TestFitRejectsUnknownLayer(t *testing.T) {
	rng := xrand.New(1)
	x, y := tensor.NewMatrix(4, 2), tensor.NewMatrix(4, 2)
	for name, net := range map[string]*Network{
		"foreign layer":   NewNetwork(rng, NewDense(2, 2, Tanh, rng), fakeLayer{}),
		"leading dropout": NewNetwork(rng, NewDropout(0.5), NewDense(2, 2, Tanh, rng)),
	} {
		if _, err := net.Fit(x, y, TrainConfig{Epochs: 1}); err == nil {
			t.Fatalf("%s: Fit returned no error", name)
		}
	}
}
