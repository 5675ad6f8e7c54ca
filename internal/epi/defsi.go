package epi

import (
	"errors"
	"fmt"

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
//
// The branches and the head are three networks, each trained through a
// tape of its own: the head's input gradient is split between the
// branches. Not safe for concurrent use.
type TwoBranchNet struct {
	InA, InB, Out          int
	hiddenA, hiddenB       int
	branchA, branchB, head *nn.Network
	tapes                  [3]*nn.Tape // branch A, branch B, head; built by Fit
	xScaler                *nn.Scaler
	yScaler                *nn.Scaler
	trained                bool
	rng                    *xrand.Rand

	// The branches' inputs, the head's input and its gradient, and the
	// branches' shares of it, sized by Fit for its batches.
	xa, xb, cat, gcat, ga, gb *tensor.Matrix
}

// NewTwoBranchNet builds the network with the given hidden widths.
func NewTwoBranchNet(inA, inB, hiddenA, hiddenB, hiddenHead, out int, rng *xrand.Rand) *TwoBranchNet {
	return &TwoBranchNet{
		InA: inA, InB: inB, Out: out, hiddenA: hiddenA, hiddenB: hiddenB,
		branchA: nn.NewNetwork(rng, []nn.Activation{nn.Tanh}, inA, hiddenA),
		branchB: nn.NewNetwork(rng, []nn.Activation{nn.Tanh}, inB, hiddenB),
		head:    nn.NewMLP(rng, nn.Tanh, 0, hiddenA+hiddenB, hiddenHead, out),
		rng:     rng,
	}
}

// split stages rows idx of x, each [branch A features ++ branch B
// features], as the branches' inputs.
func (t *TwoBranchNet) split(x *tensor.Matrix, idx []int) {
	xa, xb := t.xa.Reshape(len(idx), t.InA), t.xb.Reshape(len(idx), t.InB)
	for bi, id := range idx {
		copy(xa.Row(bi), x.Row(id)[:t.InA])
		copy(xb.Row(bi), x.Row(id)[t.InA:])
	}
}

// forward runs the staged inputs through both branches and the head.
func (t *TwoBranchNet) forward() *tensor.Matrix {
	ha, hb := t.tapes[0].Forward(t.xa), t.tapes[1].Forward(t.xb)
	cat := t.cat.Reshape(ha.Rows, t.hiddenA+t.hiddenB)
	for i := 0; i < cat.Rows; i++ {
		copy(cat.Row(i), ha.Row(i))
		copy(cat.Row(i)[t.hiddenA:], hb.Row(i))
	}
	return t.tapes[2].Forward(cat)
}

// backward propagates the loss gradient through the head and its input
// gradient's shares through the branches.
func (t *TwoBranchNet) backward(g *tensor.Matrix) {
	gcat := t.gcat.Reshape(g.Rows, t.hiddenA+t.hiddenB)
	t.tapes[2].Backward(g, gcat)
	ga, gb := t.ga.Reshape(g.Rows, t.hiddenA), t.gb.Reshape(g.Rows, t.hiddenB)
	for i := 0; i < g.Rows; i++ {
		copy(ga.Row(i), gcat.Row(i)[:t.hiddenA])
		copy(gb.Row(i), gcat.Row(i)[t.hiddenA:])
	}
	t.tapes[0].Backward(ga, nil)
	t.tapes[1].Backward(gb, nil)
}

// Fit trains on rows of [branchA features ++ branchB features] → targets.
// A fit whose loss or weights stop being finite returns nn.ErrDiverged and
// leaves the net untrained.
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
	t.trained = false
	t.xScaler = nn.FitScaler(x)
	t.yScaler = nn.FitScaler(y)
	xs := t.xScaler.Transform(x)
	ys := t.yScaler.Transform(y)
	idx := t.rng.Perm(xs.Rows)
	rows := min(batchSize, len(idx))
	t.tapes = [3]*nn.Tape{t.branchA.Tape(rows), t.branchB.Tape(rows), t.head.Tape(rows)}
	t.xa, t.xb = tensor.NewMatrix(rows, t.InA), tensor.NewMatrix(rows, t.InB)
	t.cat, t.gcat = tensor.NewMatrix(rows, t.hiddenA+t.hiddenB), tensor.NewMatrix(rows, t.hiddenA+t.hiddenB)
	t.ga, t.gb = tensor.NewMatrix(rows, t.hiddenA), tensor.NewMatrix(rows, t.hiddenB)
	yb, g := tensor.NewMatrix(rows, ys.Cols), tensor.NewMatrix(rows, ys.Cols)
	opts := [3]*nn.Adam{nn.NewAdam(lr), nn.NewAdam(lr), nn.NewAdam(lr)}
	for epoch := 0; epoch < epochs; epoch++ {
		t.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		loss := 0.0
		for start := 0; start < len(idx); start += batchSize {
			batch := idx[start:min(start+batchSize, len(idx))]
			t.split(xs, batch)
			by := tensor.GatherRowsInto(yb, ys, batch)
			pred := t.forward()
			loss += nn.MSE{}.Value(pred, by)
			t.backward(nn.MSE{}.Grad(g.Reshape(len(batch), ys.Cols), pred, by))
			for i, tp := range t.tapes {
				opts[i].Step(tp.Params())
			}
		}
		for _, tp := range t.tapes {
			if err := tp.Check(loss); err != nil {
				return err
			}
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
	t.split(tensor.FromRows([][]float64{t.xScaler.TransformVec(x)}), []int{0})
	pred := t.yScaler.Inverse(t.forward().Row(0))
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
