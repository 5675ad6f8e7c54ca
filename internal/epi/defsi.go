package epi

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Surveil coarsens a state-level weekly incidence curve into the kind of
// surveillance signal the CDC publishes (§II-A): underreported by
// reportRate, perturbed by multiplicative noise, never negative. The
// county-level truth is NOT observable — recovering it is DEFSI's job.
func Surveil(stateWeekly []float64, reportRate, noiseFrac float64, rng *xrand.Rand) []float64 {
	out := make([]float64, len(stateWeekly))
	for i, v := range stateWeekly {
		obs := v*reportRate + rng.Normal(0, noiseFrac*v*reportRate+1e-9)
		if obs < 0 {
			obs = 0
		}
		out[i] = obs
	}
	return out
}

// TwoBranchNet is the DEFSI architecture (§II-A): "a two-branch deep
// neural network trained on the synthetic training dataset and used to
// make detailed forecasts with coarse surveillance data as inputs". Branch
// A consumes the within-season signal (a window of recent state-level
// surveillance); branch B consumes between-season context (normalized
// season week and the historical seasonal curve); their hidden features
// are concatenated into a head that emits county-resolution incidence.
type TwoBranchNet struct {
	InA, InB, Out    int
	branchA, branchB *nn.Dense
	head, out        *nn.Dense
	xScaler          *nn.Scaler
	yScaler          *nn.Scaler
	trained          bool
	rng              *xrand.Rand

	// Owned forward/backward workspaces, reused across steps so the
	// training loop is allocation-free (the dense layers copy their
	// inputs, so reuse is safe). Not safe for concurrent use.
	xa, xb, concat *tensor.Matrix
	ga, gb         *tensor.Matrix
}

// scratch returns *m reshaped to rows x cols, allocating only on growth.
func scratch(m **tensor.Matrix, rows, cols int) *tensor.Matrix {
	if *m == nil {
		*m = tensor.NewMatrix(rows, cols)
		return *m
	}
	return (*m).Reshape(rows, cols)
}

// NewTwoBranchNet builds the network with the given hidden widths.
func NewTwoBranchNet(inA, inB, hiddenA, hiddenB, hiddenHead, out int, rng *xrand.Rand) *TwoBranchNet {
	return &TwoBranchNet{
		InA: inA, InB: inB, Out: out,
		branchA: nn.NewDense(inA, hiddenA, nn.Tanh, rng),
		branchB: nn.NewDense(inB, hiddenB, nn.Tanh, rng),
		head:    nn.NewDense(hiddenA+hiddenB, hiddenHead, nn.Tanh, rng),
		out:     nn.NewDense(hiddenHead, out, nn.Identity, rng),
		rng:     rng,
	}
}

// forward runs a (scaled) batch through both branches and the head.
func (t *TwoBranchNet) forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	xa := scratch(&t.xa, x.Rows, t.InA)
	xb := scratch(&t.xb, x.Rows, t.InB)
	for i := 0; i < x.Rows; i++ {
		copy(xa.Row(i), x.Row(i)[:t.InA])
		copy(xb.Row(i), x.Row(i)[t.InA:])
	}
	ha := t.branchA.Forward(xa, training, t.rng)
	hb := t.branchB.Forward(xb, training, t.rng)
	concat := scratch(&t.concat, x.Rows, ha.Cols+hb.Cols)
	for i := 0; i < x.Rows; i++ {
		copy(concat.Row(i)[:ha.Cols], ha.Row(i))
		copy(concat.Row(i)[ha.Cols:], hb.Row(i))
	}
	h := t.head.Forward(concat, training, t.rng)
	return t.out.Forward(h, training, t.rng)
}

// backward propagates the loss gradient through head and both branches.
func (t *TwoBranchNet) backward(gradOut *tensor.Matrix) {
	g := t.out.Backward(gradOut)
	gConcat := t.head.Backward(g)
	ga := scratch(&t.ga, gConcat.Rows, t.branchA.Out)
	gb := scratch(&t.gb, gConcat.Rows, t.branchB.Out)
	for i := 0; i < gConcat.Rows; i++ {
		copy(ga.Row(i), gConcat.Row(i)[:t.branchA.Out])
		copy(gb.Row(i), gConcat.Row(i)[t.branchA.Out:])
	}
	t.branchA.Backward(ga)
	t.branchB.Backward(gb)
}

func (t *TwoBranchNet) params() []nn.ParamPair {
	var out []nn.ParamPair
	for _, l := range []*nn.Dense{t.branchA, t.branchB, t.head, t.out} {
		out = append(out, l.Params()...)
	}
	return out
}

// Fit trains on rows of [branchA features ++ branchB features] → targets.
func (t *TwoBranchNet) Fit(x, y *tensor.Matrix, epochs, batchSize int, lr float64) error {
	if x.Rows != y.Rows {
		return fmt.Errorf("epi: x rows %d != y rows %d", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return errors.New("epi: empty DEFSI training set")
	}
	if x.Cols != t.InA+t.InB {
		return fmt.Errorf("epi: expected %d features, got %d", t.InA+t.InB, x.Cols)
	}
	t.xScaler = nn.FitScaler(x)
	t.yScaler = nn.FitScaler(y)
	xs := t.xScaler.Transform(x)
	ys := t.yScaler.Transform(y)
	opt := nn.NewAdam(lr)
	loss := nn.MSE{}
	idx := t.rng.Perm(xs.Rows)
	params := t.params()
	maxBatch := batchSize
	if maxBatch > len(idx) {
		maxBatch = len(idx)
	}
	xb := tensor.NewMatrix(maxBatch, xs.Cols)
	yb := tensor.NewMatrix(maxBatch, ys.Cols)
	gb := tensor.NewMatrix(maxBatch, ys.Cols)
	for epoch := 0; epoch < epochs; epoch++ {
		t.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batchSize {
			end := start + batchSize
			if end > len(idx) {
				end = len(idx)
			}
			bs := end - start
			bx := xb.Reshape(bs, xs.Cols)
			by := yb.Reshape(bs, ys.Cols)
			for bi, id := range idx[start:end] {
				copy(bx.Row(bi), xs.Row(id))
				copy(by.Row(bi), ys.Row(id))
			}
			pred := t.forward(bx, true)
			if math.IsNaN(loss.Value(pred, by)) {
				return nn.ErrDiverged
			}
			t.backward(loss.Grad(gb.Reshape(bs, ys.Cols), pred, by))
			opt.Step(params)
		}
	}
	t.trained = true
	return nil
}

// Predict returns the county-level forecast for one feature vector.
func (t *TwoBranchNet) Predict(x []float64) []float64 {
	if !t.trained {
		panic("epi: TwoBranchNet used before Fit")
	}
	in := tensor.FromRows([][]float64{t.xScaler.TransformVec(x)})
	out := t.forward(in, false)
	pred := t.yScaler.Inverse(out.Row(0))
	// Incidence cannot be negative.
	for i, v := range pred {
		if v < 0 {
			pred[i] = 0
		}
	}
	return pred
}

// DEFSIConfig parameterizes the full DEFSI pipeline.
type DEFSIConfig struct {
	// Window is the number of trailing surveillance weeks in branch A.
	Window int
	// TrainSeasons is the number of synthetic seasons to simulate for the
	// training corpus (module ii of the DEFSI framework).
	TrainSeasons int
	// ReportRate and NoiseFrac define the surveillance coarsening.
	ReportRate, NoiseFrac float64
	// Epochs/BatchSize/LR train the two-branch net.
	Epochs    int
	BatchSize int
	LR        float64
	// Seed drives the whole pipeline.
	Seed uint64
}

// DefaultDEFSIConfig returns the reproduction-scale pipeline settings.
func DefaultDEFSIConfig() DEFSIConfig {
	return DEFSIConfig{
		Window: 4, TrainSeasons: 30, ReportRate: 0.3, NoiseFrac: 0.1,
		Epochs: 60, BatchSize: 32, LR: 3e-3, Seed: 7,
	}
}

// DEFSI is the trained pipeline: it owns the network plus the historical
// seasonal profile branch B conditions on.
type DEFSI struct {
	Net        *TwoBranchNet
	Cfg        DEFSIConfig
	Counties   int
	Weeks      int
	HistState  []float64 // historical mean surveillance curve by week
	paramsUsed []DiseaseParams
}

// TrainDEFSI executes the three DEFSI modules (§II-A): (i) parameter
// distributions estimated from coarse surveillance of prior seasons, (ii)
// an HPC batch of SEIR simulations generating high-resolution synthetic
// training data, (iii) two-branch network training on that corpus.
func TrainDEFSI(net *Network, priorSeasons []DiseaseParams, weeks int, cfg DEFSIConfig) (*DEFSI, error) {
	if cfg.Window < 1 || weeks <= cfg.Window {
		return nil, fmt.Errorf("epi: window %d incompatible with %d weeks", cfg.Window, weeks)
	}
	if len(priorSeasons) == 0 {
		return nil, errors.New("epi: need at least one prior season parameterization")
	}
	rng := xrand.New(cfg.Seed)
	d := &DEFSI{Cfg: cfg, Counties: net.Counties, Weeks: weeks}

	// Module (i): sample training-season parameters around the priors
	// (the paper estimates a distribution per parameter; we jitter the
	// estimated values).
	type sample struct {
		dp   DiseaseParams
		seed uint64
	}
	var samples []sample
	for i := 0; i < cfg.TrainSeasons; i++ {
		base := priorSeasons[rng.Intn(len(priorSeasons))]
		dp := base
		dp.Beta *= rng.Range(0.8, 1.25)
		dp.InitialInfections = 1 + rng.Poisson(float64(base.InitialInfections))
		samples = append(samples, sample{dp: dp, seed: rng.Uint64()})
	}

	// Module (ii): run the simulations, building surveillance views and
	// the historical profile.
	inA := cfg.Window
	inB := 2 // normalized week + historical curve value
	d.HistState = make([]float64, weeks)
	type seasonData struct {
		surveil []float64
		county  [][]float64
	}
	var seasons []seasonData
	for _, sm := range samples {
		res, err := Simulate(net, sm.dp, weeks, sm.seed)
		if err != nil {
			return nil, err
		}
		sv := Surveil(res.WeeklyState, cfg.ReportRate, cfg.NoiseFrac, rng.Split())
		seasons = append(seasons, seasonData{surveil: sv, county: res.WeeklyCounty})
		for w, v := range sv {
			d.HistState[w] += v / float64(len(samples))
		}
		d.paramsUsed = append(d.paramsUsed, sm.dp)
	}

	// Module (iii): assemble the supervised corpus and train.
	var xRows, yRows [][]float64
	for _, sd := range seasons {
		for t := cfg.Window; t < weeks; t++ {
			feat := make([]float64, inA+inB)
			copy(feat, sd.surveil[t-cfg.Window:t])
			feat[inA] = float64(t) / float64(weeks)
			feat[inA+1] = d.HistState[t]
			xRows = append(xRows, feat)
			yRows = append(yRows, sd.county[t])
		}
	}
	x := tensor.FromRows(xRows)
	y := tensor.FromRows(yRows)
	d.Net = NewTwoBranchNet(inA, inB, 24, 8, 32, net.Counties, rng.Split())
	if err := d.Net.Fit(x, y, cfg.Epochs, cfg.BatchSize, cfg.LR); err != nil {
		return nil, err
	}
	return d, nil
}

// ForecastCounty predicts county-level incidence at week t from the
// surveillance prefix observed so far (needs at least Window weeks).
func (d *DEFSI) ForecastCounty(surveillance []float64, t int) ([]float64, error) {
	if t < d.Cfg.Window || t >= d.Weeks {
		return nil, fmt.Errorf("epi: forecast week %d outside [%d,%d)", t, d.Cfg.Window, d.Weeks)
	}
	if len(surveillance) < t {
		return nil, fmt.Errorf("epi: surveillance has %d weeks, need %d", len(surveillance), t)
	}
	feat := make([]float64, d.Cfg.Window+2)
	copy(feat, surveillance[t-d.Cfg.Window:t])
	feat[d.Cfg.Window] = float64(t) / float64(d.Weeks)
	feat[d.Cfg.Window+1] = d.HistState[t]
	return d.Net.Predict(feat), nil
}

// ForecastState predicts state-level incidence at week t (the sum of the
// county forecast).
func (d *DEFSI) ForecastState(surveillance []float64, t int) (float64, error) {
	county, err := d.ForecastCounty(surveillance, t)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, v := range county {
		total += v
	}
	return total, nil
}
