package tissue

import (
	"errors"
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// LearnedStencil is the ML short-circuit of the transport loop: a model
// that maps a 5x5 neighborhood of the 2× coarse field directly to the
// coarse value K micro-steps later, replacing K explicit fine-grid sweeps
// with a single learned sweep on a quarter of the nodes. For the linear
// PDE the learned propagator can be nearly exact; the NN variant (one
// hidden layer) also absorbs the mild nonlinearity of the decay+source
// coupling. This is experiment E9's surrogate.
type LearnedStencil struct {
	// K is the number of micro-steps the stencil jumps.
	K int
	// Patch is the neighborhood half-width (1 → 3x3, 2 → 5x5).
	Patch int
	// Hidden, when non-zero, inserts a hidden tanh layer of that width.
	Hidden int

	prog    *nn.Compiled   // the trained network, compiled once after Fit
	xBuf    *tensor.Matrix // reusable all-nodes feature batch
	yBuf    *tensor.Matrix // reusable all-nodes output batch
	scaler  *nn.Scaler
	trained bool
	rng     *xrand.Rand
}

// NewLearnedStencil constructs an untrained stencil surrogate.
func NewLearnedStencil(k, patch, hidden int, rng *xrand.Rand) *LearnedStencil {
	if k < 1 || patch < 1 {
		panic("tissue: invalid stencil configuration")
	}
	return &LearnedStencil{K: k, Patch: patch, Hidden: hidden, rng: rng}
}

// Name implements MacroStepper.
func (ls *LearnedStencil) Name() string { return fmt.Sprintf("learned-stencil(K=%d)", ls.K) }

func (ls *LearnedStencil) featDim() int {
	w := 2*ls.Patch + 1
	return w * w
}

// patchFeatures extracts the flattened neighborhood of (i,j).
func (ls *LearnedStencil) patchFeatures(f *Field, i, j int, out []float64) {
	k := 0
	for dj := -ls.Patch; dj <= ls.Patch; dj++ {
		for di := -ls.Patch; di <= ls.Patch; di++ {
			out[k] = f.At(i+di, j+dj)
			k++
		}
	}
}

// TrainConfig controls surrogate training data generation.
type TrainConfig struct {
	// Fields is how many random training fields to simulate.
	Fields int
	// SamplesPerField is how many (patch, future-value) pairs to harvest
	// per training field.
	SamplesPerField int
	Epochs          int
	LR              float64
	Seed            uint64
}

// DefaultTrainConfig returns reproduction-scale settings.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Fields: 12, SamplesPerField: 400, Epochs: 120, LR: 5e-3, Seed: 3}
}

// Train learns the effective coarse-grain propagator of the FINE dynamics
// — the paper's "systematic ML-based coarse-graining" (§I): random fine
// fields are advanced K micro-steps by the explicit fine solver, and the
// stencil is fit on (restricted before-patch → restricted after-value)
// pairs. proto and fineSolver must describe the fine grid; the trained
// stencil then operates on 2× restricted fields.
func (ls *LearnedStencil) Train(proto *Field, fineSolver *Solver, tc TrainConfig) error {
	if tc.Fields < 1 || tc.SamplesPerField < 1 {
		return errors.New("tissue: empty stencil training plan")
	}
	rng := xrand.New(tc.Seed)
	dim := ls.featDim()
	var xRows, yRows [][]float64
	for fi := 0; fi < tc.Fields; fi++ {
		f := NewField(proto.NX, proto.NY, proto.H)
		// Random superposition of bumps → diverse local patches.
		nBumps := 1 + rng.Intn(4)
		for b := 0; b < nBumps; b++ {
			f.GaussianBump(rng.Float64()*float64(f.NX), rng.Float64()*float64(f.NY),
				rng.Range(1, 4)*f.H, rng.Range(0.5, 2))
		}
		before := Restrict(f)
		fineSolver.Steps(f, ls.K)
		after := Restrict(f)
		for s := 0; s < tc.SamplesPerField; s++ {
			i, j := rng.Intn(after.NX), rng.Intn(after.NY)
			row := make([]float64, dim)
			ls.patchFeatures(before, i, j, row)
			xRows = append(xRows, row)
			yRows = append(yRows, []float64{after.At(i, j)})
		}
	}
	x := tensor.FromRows(xRows)
	y := tensor.FromRows(yRows)
	ls.scaler = nn.FitScaler(x)
	xs := ls.scaler.Transform(x)
	widths := []int{dim, 1}
	if ls.Hidden > 0 {
		widths = []int{dim, ls.Hidden, 1}
	}
	net := nn.NewMLP(ls.rng.Split(), nn.Tanh, 0, widths...)
	if _, err := net.Fit(xs, y, nn.TrainConfig{
		Epochs: tc.Epochs, BatchSize: 64, Optimizer: nn.NewAdam(tc.LR), Seed: tc.Seed,
	}); err != nil {
		return fmt.Errorf("tissue: stencil training: %w", err)
	}
	ls.prog = net.Compile()
	ls.trained = true
	return nil
}

// Advance implements MacroStepper: each call jumps the field K micro-steps
// using one learned sweep. k must be a multiple of K. The sweep reuses
// stencil-owned workspaces, so a LearnedStencil is NOT safe for
// concurrent use; give each goroutine its own trained stencil.
func (ls *LearnedStencil) Advance(f *Field, k int) {
	if !ls.trained {
		panic("tissue: LearnedStencil used before Train")
	}
	if k%ls.K != 0 {
		panic(fmt.Sprintf("tissue: advance %d not a multiple of stencil K=%d", k, ls.K))
	}
	jumps := k / ls.K
	dim := ls.featDim()
	// The feature and output batches are owned by the stencil and reused
	// across jumps and Advance calls: the sweep allocates nothing in
	// steady state.
	if ls.xBuf == nil {
		ls.xBuf = tensor.NewMatrix(f.NX*f.NY, dim)
	}
	x := ls.xBuf.Reshape(f.NX*f.NY, dim)
	for jmp := 0; jmp < jumps; jmp++ {
		// Batch all nodes through the network in one forward pass,
		// standardizing each patch in place in its batch row.
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				row := x.Row(j*f.NX + i)
				ls.patchFeatures(f, i, j, row)
				ls.scaler.TransformVecInto(row, row)
			}
		}
		ls.yBuf = ls.prog.PredictBatch(x, ls.yBuf)
		for idx := range f.U {
			v := ls.yBuf.At(idx, 0)
			if v < 0 {
				v = 0 // concentrations cannot be negative
			}
			f.U[idx] = v
		}
	}
}
