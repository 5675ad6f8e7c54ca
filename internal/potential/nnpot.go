package potential

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// NNPotential is a Behler–Parrinello neural network potential: one shared
// atomic network maps each atom's symmetry-function descriptor to an
// atomic energy contribution, and the configuration energy is the sum of
// atomic contributions ("represent the total energy as a sum of atomic
// contributions", §II-C2).
type NNPotential struct {
	SF     *SymmetryFunctions
	Hidden []int
	Epochs int
	LR     float64

	rng       *xrand.Rand
	prog      *nn.Compiled   // the trained atomic network, compiled once after Fit
	featBuf   *tensor.Matrix // reusable per-atom descriptor batch
	outBuf    *tensor.Matrix // reusable per-atom energy batch
	featMean  []float64
	featStd   []float64
	eShift    float64 // mean per-atom energy in training data
	eScale    float64 // std of per-atom energies
	trained   bool
	trainSeen int
}

// NewNNPotential constructs an untrained potential.
func NewNNPotential(sf *SymmetryFunctions, hidden []int, rng *xrand.Rand) *NNPotential {
	return &NNPotential{SF: sf, Hidden: hidden, Epochs: 150, LR: 3e-3, rng: rng}
}

// Fit trains the atomic network so that summed atomic energies match the
// provided total energies. Each configuration is one training unit; the
// per-atom gradient is the standard sum-pooled MSE gradient. A fit whose
// loss or weights stop being finite returns nn.ErrDiverged and leaves the
// potential untrained.
func (p *NNPotential) Fit(configs []*Configuration, energies []float64) error {
	if len(configs) == 0 {
		return errors.New("potential: empty training set")
	}
	if len(configs) != len(energies) {
		return fmt.Errorf("potential: %d configs vs %d energies", len(configs), len(energies))
	}
	p.trained = false
	// Descriptor statistics over all atoms of all configurations.
	dim := p.SF.Dim()
	feats := make([][][]float64, len(configs))
	var wf []stats.Welford
	wf = make([]stats.Welford, dim)
	for ci, c := range configs {
		feats[ci] = p.SF.Compute(c)
		for _, row := range feats[ci] {
			for k, v := range row {
				wf[k].Add(v)
			}
		}
	}
	p.featMean = make([]float64, dim)
	p.featStd = make([]float64, dim)
	for k := range wf {
		p.featMean[k] = wf[k].Mean()
		sd := wf[k].StdDev()
		if math.IsNaN(sd) || sd < 1e-12 {
			sd = 1
		}
		p.featStd[k] = sd
	}
	// Per-atom energy normalization.
	perAtom := make([]float64, len(configs))
	for i, c := range configs {
		perAtom[i] = energies[i] / float64(c.NAtoms())
	}
	p.eShift = stats.Mean(perAtom)
	p.eScale = stats.StdDev(perAtom)
	if math.IsNaN(p.eScale) || p.eScale < 1e-12 {
		p.eScale = 1
	}

	widths := append([]int{dim}, append(append([]int(nil), p.Hidden...), 1)...)
	net := nn.NewMLP(p.rng.Split(), nn.Tanh, 0, widths...)
	opt := nn.NewAdam(p.LR)
	order := make([]int, len(configs))
	for i := range order {
		order[i] = i
	}
	// Scale every configuration's descriptor matrix once up front; the
	// scaled features are constant across epochs, and the tape reads them
	// in place, so the epoch loop below runs allocation-free.
	scaled := make([]*tensor.Matrix, len(configs))
	maxAtoms := 0
	for ci := range feats {
		scaled[ci] = p.scaledFeatures(feats[ci])
		maxAtoms = max(maxAtoms, len(feats[ci]))
	}
	tape := net.Tape(maxAtoms)
	grad := tensor.NewMatrix(maxAtoms, 1)
	shuffleRng := p.rng.Split()
	for epoch := 0; epoch < p.Epochs; epoch++ {
		shuffleRng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		loss := 0.0
		for _, ci := range order {
			target := (perAtom[ci] - p.eShift) / p.eScale
			out := tape.Forward(scaled[ci])
			// Predicted normalized per-atom energy is the mean output; its
			// squared error's gradient reaches every atom alike.
			mean := 0.0
			for _, v := range out.Data {
				mean += v
			}
			mean /= float64(out.Rows)
			loss += (mean - target) * (mean - target)
			gb := grad.Reshape(out.Rows, 1)
			gb.Fill(2 * (mean - target) / float64(out.Rows))
			tape.Backward(gb, nil)
			opt.Step(tape.Params())
		}
		if err := tape.Check(loss); err != nil {
			return err
		}
	}
	p.prog = net.Compile()
	p.trained = true
	p.trainSeen = len(configs)
	return nil
}

func (p *NNPotential) scaledFeatures(rows [][]float64) *tensor.Matrix {
	return p.scaledFeaturesInto(tensor.NewMatrix(len(rows), p.SF.Dim()), rows)
}

// scaledFeaturesInto standardizes the per-atom descriptor rows into dst
// (reshaped to fit) — the single home of the feature normalization used
// by both training and inference.
func (p *NNPotential) scaledFeaturesInto(dst *tensor.Matrix, rows [][]float64) *tensor.Matrix {
	dst.Reshape(len(rows), p.SF.Dim())
	for i, row := range rows {
		xr := dst.Row(i)
		for k, v := range row {
			xr[k] = (v - p.featMean[k]) / p.featStd[k]
		}
	}
	return dst
}

// PredictEnergy returns the learned total energy of a configuration. It
// batches all atoms through one pass of the compiled network, staging the
// descriptors and the per-atom outputs in two batches the potential owns,
// so repeated calls (committee sweeps, active learning pool scans) reuse
// the same buffers. The program itself is safe for concurrent use; those
// two batches are not, so an NNPotential is NOT: parallelize across
// potentials (e.g. one Committee member per goroutine), not across calls
// on one.
func (p *NNPotential) PredictEnergy(c *Configuration) float64 {
	if !p.trained {
		panic("potential: PredictEnergy before Fit")
	}
	if p.featBuf == nil {
		p.featBuf = tensor.NewMatrix(0, p.SF.Dim())
	}
	x := p.scaledFeaturesInto(p.featBuf, p.SF.Compute(c))
	p.outBuf = p.prog.PredictBatch(x, p.outBuf)
	out := p.outBuf
	mean := 0.0
	for i := 0; i < out.Rows; i++ {
		mean += out.At(i, 0)
	}
	mean /= float64(out.Rows)
	return (mean*p.eScale + p.eShift) * float64(c.NAtoms())
}

// MAE evaluates the potential against reference energies.
func (p *NNPotential) MAE(configs []*Configuration, energies []float64) float64 {
	pred := make([]float64, len(configs))
	for i, c := range configs {
		pred[i] = p.PredictEnergy(c)
	}
	return stats.MAE(pred, energies)
}

// Committee is an ensemble of NN potentials whose disagreement provides
// the uncertainty signal driving active learning (query-by-committee).
type Committee struct {
	Members []*NNPotential
}

// NewCommittee builds size independently seeded potentials.
func NewCommittee(size int, sf *SymmetryFunctions, hidden []int, rng *xrand.Rand) *Committee {
	com := &Committee{}
	for i := 0; i < size; i++ {
		com.Members = append(com.Members, NewNNPotential(sf, hidden, rng.Split()))
	}
	return com
}

// Fit trains every member on the same data. Members are independent
// networks with their own rng streams and workspaces, so their fits run
// concurrently over a bounded worker pool (the same serving-while-training
// fan-out pattern core's sharded wrapper uses); results are identical to a
// sequential fit regardless of scheduling.
func (c *Committee) Fit(configs []*Configuration, energies []float64) error {
	errs := make([]error, len(c.Members))
	parallel.ForEachBounded(len(c.Members), runtime.GOMAXPROCS(0), func(i int) {
		errs[i] = c.Members[i].Fit(configs, energies)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("potential: committee member %d: %w", i, err)
		}
	}
	return nil
}

// Predict returns the committee mean and standard deviation of the total
// energy.
func (c *Committee) Predict(conf *Configuration) (mean, std float64) {
	var w stats.Welford
	for _, m := range c.Members {
		w.Add(m.PredictEnergy(conf))
	}
	sd := w.StdDev()
	if math.IsNaN(sd) {
		sd = 0
	}
	return w.Mean(), sd
}

// MAE evaluates the committee mean prediction.
func (c *Committee) MAE(configs []*Configuration, energies []float64) float64 {
	pred := make([]float64, len(configs))
	for i, conf := range configs {
		pred[i], _ = c.Predict(conf)
	}
	return stats.MAE(pred, energies)
}

// ALRound is one active-learning iteration record.
type ALRound struct {
	Samples int
	TestMAE float64
}

// ALStrategy selects acquisition behaviour.
type ALStrategy int

// Active-learning strategies.
const (
	ALRandom ALStrategy = iota
	ALCommitteeVariance
)

// String returns the strategy name.
func (s ALStrategy) String() string {
	if s == ALCommitteeVariance {
		return "committee-variance"
	}
	return "random"
}

// ActiveLearnConfig parameterizes ActiveLearn.
type ActiveLearnConfig struct {
	Strategy       ALStrategy
	CommitteeSize  int
	Hidden         []int
	InitialSamples int
	BatchSize      int
	MaxSamples     int
	Seed           uint64
}

// ActiveLearn runs pool-based active learning of the reference oracle,
// returning the learning curve. It reproduces the §II-C2 claim that
// uncertainty-driven acquisition reaches target accuracy with a fraction
// of the data random acquisition needs (experiment E6).
func ActiveLearn(oracle *AbInitio, sf *SymmetryFunctions, pool []*Configuration,
	testConfigs []*Configuration, testEnergies []float64, cfg ActiveLearnConfig) ([]ALRound, error) {
	if cfg.CommitteeSize < 1 {
		cfg.CommitteeSize = 3
	}
	if cfg.InitialSamples < 1 || cfg.InitialSamples > len(pool) {
		return nil, fmt.Errorf("potential: initial samples %d invalid for pool %d", cfg.InitialSamples, len(pool))
	}
	rng := xrand.New(cfg.Seed + 0xA1)
	order := rng.Perm(len(pool))
	var train []*Configuration
	var trainE []float64
	take := func(idx []int) {
		for _, id := range idx {
			train = append(train, pool[id])
			trainE = append(trainE, oracle.Energy(pool[id]))
		}
	}
	take(order[:cfg.InitialSamples])
	available := order[cfg.InitialSamples:]

	var curve []ALRound
	for {
		com := NewCommittee(cfg.CommitteeSize, sf, cfg.Hidden, rng.Split())
		if err := com.Fit(train, trainE); err != nil {
			return curve, err
		}
		curve = append(curve, ALRound{Samples: len(train), TestMAE: com.MAE(testConfigs, testEnergies)})
		if len(train) >= cfg.MaxSamples || len(available) == 0 {
			return curve, nil
		}
		batch := cfg.BatchSize
		if batch <= 0 {
			batch = 10
		}
		if batch > len(available) {
			batch = len(available)
		}
		var chosen []int
		if cfg.Strategy == ALCommitteeVariance {
			type cand struct {
				pos int
				unc float64
			}
			cands := make([]cand, len(available))
			for i, id := range available {
				_, sd := com.Predict(pool[id])
				cands[i] = cand{pos: i, unc: sd}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].unc > cands[j].unc })
			taken := map[int]bool{}
			for _, cd := range cands[:batch] {
				chosen = append(chosen, available[cd.pos])
				taken[cd.pos] = true
			}
			var rest []int
			for i, id := range available {
				if !taken[i] {
					rest = append(rest, id)
				}
			}
			available = rest
		} else {
			chosen = append(chosen, available[:batch]...)
			available = available[batch:]
		}
		take(chosen)
	}
}

// SamplesToReachMAE returns the first training-set size achieving the
// target MAE, or -1.
func SamplesToReachMAE(curve []ALRound, target float64) int {
	for _, r := range curve {
		if r.TestMAE <= target {
			return r.Samples
		}
	}
	return -1
}
