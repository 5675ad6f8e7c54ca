package epi

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

func smallPopulation(t testing.TB) *Network {
	t.Helper()
	cfg := DefaultPopulationConfig()
	cfg.Counties = 4
	cfg.MeanCountyPop = 250
	cfg.Seed = 99
	net, err := GeneratePopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGeneratePopulationStructure(t *testing.T) {
	net := smallPopulation(t)
	if net.Counties != 4 {
		t.Fatalf("counties %d", net.Counties)
	}
	pops := net.CountyPopulations()
	total := 0
	for c, p := range pops {
		if p < 2 {
			t.Fatalf("county %d population %d too small", c, p)
		}
		total += p
	}
	if total != len(net.People) {
		t.Fatal("county populations do not sum to total")
	}
	if d := meanDegree(net); d < 3 || d > 40 {
		t.Fatalf("mean degree %g implausible", d)
	}
}

// meanDegree is the average contact count per person.
func meanDegree(n *Network) float64 {
	total := 0
	for _, adj := range n.Adj {
		total += len(adj)
	}
	return float64(total) / float64(len(n.People))
}

func TestGeneratePopulationAdjacencySymmetric(t *testing.T) {
	net := smallPopulation(t)
	// Count directed edges both ways; they must match per unordered pair.
	type pair struct{ a, b int32 }
	counts := map[pair]int{}
	for i, adj := range net.Adj {
		for _, j := range adj {
			a, b := int32(i), j
			if a > b {
				a, b = b, a
			}
			counts[pair{a, b}]++
		}
	}
	for p, c := range counts {
		if c%2 != 0 {
			t.Fatalf("edge %v has odd directed count %d", p, c)
		}
	}
}

func TestGeneratePopulationHouseholdsAreCliques(t *testing.T) {
	net := smallPopulation(t)
	byHousehold := map[int][]int{}
	for i, p := range net.People {
		byHousehold[p.Household] = append(byHousehold[p.Household], i)
	}
	checked := 0
	for _, members := range byHousehold {
		if len(members) < 2 {
			continue
		}
		neighbors := map[int32]bool{}
		for _, j := range net.Adj[members[0]] {
			neighbors[j] = true
		}
		for _, m := range members[1:] {
			if !neighbors[int32(m)] {
				t.Fatalf("household member %d not adjacent to %d", m, members[0])
			}
		}
		checked++
		if checked > 30 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no multi-person households generated")
	}
}

func TestGeneratePopulationInvalidConfig(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.Counties = 0
	if _, err := GeneratePopulation(cfg); err == nil {
		t.Fatal("zero counties accepted")
	}
}

func TestSimulateConservation(t *testing.T) {
	// Total infections over the season can never exceed the population,
	// and weekly incidence is non-negative.
	net := smallPopulation(t)
	res, err := Simulate(net, DefaultDiseaseParams(), 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for w, v := range res.WeeklyState {
		if v < 0 {
			t.Fatalf("negative weekly incidence at week %d", w)
		}
		total += v
		// State = sum of counties.
		sum := 0.0
		for _, c := range res.WeeklyCounty[w] {
			if c < 0 {
				t.Fatal("negative county incidence")
			}
			sum += c
		}
		if math.Abs(sum-v) > 1e-9 {
			t.Fatalf("state incidence %g != county sum %g", v, sum)
		}
	}
	if total > float64(len(net.People)) {
		t.Fatalf("total infections %g exceed population %d", total, len(net.People))
	}
	if res.AttackRate < 0 || res.AttackRate > 1 {
		t.Fatalf("attack rate %g outside [0,1]", res.AttackRate)
	}
}

func TestSimulateDeterministicSeed(t *testing.T) {
	net := smallPopulation(t)
	a, err := Simulate(net, DefaultDiseaseParams(), 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(net, DefaultDiseaseParams(), 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for w := range a.WeeklyState {
		if a.WeeklyState[w] != b.WeeklyState[w] {
			t.Fatal("same-seed simulations diverged")
		}
	}
	c, err := Simulate(net, DefaultDiseaseParams(), 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for w := range a.WeeklyState {
		if a.WeeklyState[w] != c.WeeklyState[w] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical seasons")
	}
}

func TestSimulateBetaMonotonicity(t *testing.T) {
	// Higher transmissibility must produce a larger attack rate (averaged
	// over a few replicates).
	net := smallPopulation(t)
	mean := func(beta float64) float64 {
		dp := DefaultDiseaseParams()
		dp.Beta = beta
		s := 0.0
		for rep := 0; rep < 3; rep++ {
			res, err := Simulate(net, dp, 16, uint64(100+rep))
			if err != nil {
				t.Fatal(err)
			}
			s += res.AttackRate
		}
		return s / 3
	}
	low, high := mean(0.005), mean(0.05)
	if high <= low {
		t.Fatalf("attack rate should rise with beta: %g vs %g", low, high)
	}
}

func TestSimulateValidation(t *testing.T) {
	net := smallPopulation(t)
	dp := DefaultDiseaseParams()
	dp.Beta = 2
	if _, err := Simulate(net, dp, 4, 1); err == nil {
		t.Fatal("beta > 1 accepted")
	}
	dp = DefaultDiseaseParams()
	dp.InitialInfections = 0
	if _, err := Simulate(net, dp, 4, 1); err == nil {
		t.Fatal("zero seeds accepted")
	}
	if _, err := Simulate(&Network{}, DefaultDiseaseParams(), 4, 1); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestSurveilProperties(t *testing.T) {
	rng := xrand.New(5)
	truth := []float64{0, 10, 100, 50, 5}
	obs := Surveil(truth, 0.3, 0.05, rng)
	if len(obs) != len(truth) {
		t.Fatal("length changed")
	}
	for i, v := range obs {
		if v < 0 {
			t.Fatalf("negative surveillance at %d", i)
		}
	}
	// Averaged over many draws, surveillance ≈ truth * reportRate.
	const reps = 2000
	sum := 0.0
	for r := 0; r < reps; r++ {
		sum += Surveil(truth, 0.3, 0.05, rng)[2]
	}
	if mean := sum / reps; math.Abs(mean-30) > 1.5 {
		t.Fatalf("surveillance mean %g want ~30", mean)
	}
}

func TestTwoBranchNetLearns(t *testing.T) {
	rng := xrand.New(6)
	// Synthetic task: yc = c-th fraction of sum of branch-A inputs,
	// modulated by branch-B seasonality.
	const inA, inB, out = 4, 2, 3
	const n = 600
	x := make([][]float64, n)
	y := make([][]float64, n)
	fracs := []float64{0.5, 0.3, 0.2}
	for i := 0; i < n; i++ {
		row := make([]float64, inA+inB)
		sum := 0.0
		for j := 0; j < inA; j++ {
			row[j] = rng.Range(0, 10)
			sum += row[j]
		}
		row[inA] = rng.Float64()
		row[inA+1] = rng.Float64()
		season := 1 + 0.5*row[inA]
		x[i] = row
		yr := make([]float64, out)
		for c := 0; c < out; c++ {
			yr[c] = fracs[c] * sum * season
		}
		y[i] = yr
	}
	net := NewTwoBranchNet(inA, inB, 16, 8, 24, out, rng)
	xm := toMatrix(x)
	ym := toMatrix(y)
	if err := net.Fit(xm, ym, 150, 32, 3e-3); err != nil {
		t.Fatal(err)
	}
	// In-sample accuracy check.
	worstRel := 0.0
	for i := 0; i < 20; i++ {
		pred := net.Predict(x[i])
		for c := range pred {
			denom := math.Max(1, y[i][c])
			if rel := math.Abs(pred[c]-y[i][c]) / denom; rel > worstRel {
				worstRel = rel
			}
		}
	}
	if worstRel > 0.35 {
		t.Fatalf("two-branch net worst relative error %g", worstRel)
	}
}

func TestTwoBranchNetErrors(t *testing.T) {
	rng := xrand.New(7)
	net := NewTwoBranchNet(2, 1, 4, 4, 8, 2, rng)
	if err := net.Fit(toMatrix(nil), toMatrix(nil), 1, 8, 1e-3); err == nil {
		t.Fatal("empty fit should error")
	}
	bad := [][]float64{{1, 2}} // wrong width (needs 3)
	if err := net.Fit(toMatrix(bad), toMatrix([][]float64{{1, 2}}), 1, 8, 1e-3); err == nil {
		t.Fatal("wrong feature count should error")
	}
	// At lr = 1e200 the second step's loss overflows to +Inf (not NaN): the
	// fit must report the divergence and leave the net untrained.
	rng = xrand.New(3)
	net = NewTwoBranchNet(2, 1, 4, 4, 8, 2, rng)
	x, y := tensor.NewMatrix(16, 3), tensor.NewMatrix(16, 2)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	for i := range y.Data {
		y.Data[i] = rng.Range(0, 5)
	}
	if err := net.Fit(x, y, 2, 16, 1e200); !errors.Is(err, nn.ErrDiverged) {
		t.Fatalf("Fit at lr 1e200 returned %v, want nn.ErrDiverged", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a diverged net predicted")
		}
	}()
	net.Predict([]float64{0, 0, 0})
}

func TestTwoBranchPredictPanicsUntrained(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("predict before fit did not panic")
		}
	}()
	NewTwoBranchNet(2, 1, 4, 4, 8, 1, xrand.New(8)).Predict([]float64{1, 2, 3})
}

func TestTrainDEFSIAndForecast(t *testing.T) {
	net := smallPopulation(t)
	cfg := DefaultDEFSIConfig()
	cfg.TrainSeasons = 10
	cfg.Epochs = 30
	const weeks = 10
	d, err := TrainDEFSI(net, []DiseaseParams{DefaultDiseaseParams()}, weeks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out truth season.
	truth, err := Simulate(net, DefaultDiseaseParams(), weeks, 12345)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	sv := Surveil(truth.WeeklyState, cfg.ReportRate, cfg.NoiseFrac, rng)
	county, err := d.ForecastCounty(sv, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(county) != net.Counties {
		t.Fatalf("county forecast has %d entries want %d", len(county), net.Counties)
	}
	for _, v := range county {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("invalid county forecast %v", county)
		}
	}
	st, err := d.ForecastState(sv, 6)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range county {
		sum += v
	}
	if math.Abs(st-sum) > 1e-9 {
		t.Fatal("state forecast != sum of county forecast")
	}
}

func TestTrainDEFSIValidation(t *testing.T) {
	net := smallPopulation(t)
	cfg := DefaultDEFSIConfig()
	if _, err := TrainDEFSI(net, nil, 10, cfg); err == nil {
		t.Fatal("no priors accepted")
	}
	cfg.Window = 20
	if _, err := TrainDEFSI(net, []DiseaseParams{DefaultDiseaseParams()}, 10, cfg); err == nil {
		t.Fatal("window >= weeks accepted")
	}
}

func TestDEFSIForecastRangeErrors(t *testing.T) {
	net := smallPopulation(t)
	cfg := DefaultDEFSIConfig()
	cfg.TrainSeasons = 4
	cfg.Epochs = 5
	d, err := TrainDEFSI(net, []DiseaseParams{DefaultDiseaseParams()}, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sv := make([]float64, 8)
	if _, err := d.ForecastCounty(sv, 1); err == nil {
		t.Fatal("forecast before window accepted")
	}
	if _, err := d.ForecastCounty(sv, 8); err == nil {
		t.Fatal("forecast past season accepted")
	}
	if _, err := d.ForecastCounty(sv[:2], 6); err == nil {
		t.Fatal("insufficient surveillance accepted")
	}
}

func TestEpiFastLikeCalibration(t *testing.T) {
	net := smallPopulation(t)
	truthParams := DefaultDiseaseParams()
	const weeks = 10
	truth, err := Simulate(net, truthParams, weeks, 555)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	sv := Surveil(truth.WeeklyState, 0.3, 0.05, rng)
	ef := NewEpiFastLike(net, truthParams, weeks, 0.3, 10)
	if _, err := ef.ForecastState(3); err == nil {
		t.Fatal("forecast before calibration accepted")
	}
	if err := ef.Calibrate(sv, 6); err != nil {
		t.Fatal(err)
	}
	// Calibrated beta should be within the grid around the truth.
	if ef.bestBeta < truthParams.Beta*0.4 || ef.bestBeta > truthParams.Beta*2.1 {
		t.Fatalf("calibrated beta %g far from truth %g", ef.bestBeta, truthParams.Beta)
	}
	got, err := ef.ForecastCounty(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != net.Counties {
		t.Fatal("county forecast dimension wrong")
	}
	if _, err := ef.ForecastState(weeks); err == nil {
		t.Fatal("out-of-range week accepted")
	}
}

func TestPersistenceForecast(t *testing.T) {
	net := smallPopulation(t)
	p := NewPersistenceForecast(net, 0.5)
	sv := []float64{10, 20, 30}
	st, err := p.ForecastState(sv, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st != 40 { // 20 / 0.5
		t.Fatalf("persistence state forecast %g want 40", st)
	}
	county, err := p.ForecastCounty(sv, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range county {
		sum += v
	}
	if math.Abs(sum-40) > 1e-9 {
		t.Fatal("county downscaling does not preserve state total")
	}
	if _, err := p.ForecastState(sv, 0); err == nil {
		t.Fatal("week 0 persistence accepted")
	}
}

func TestEvaluateForecasts(t *testing.T) {
	truth := &SeasonResult{
		WeeklyState:  []float64{10, 20, 30, 40},
		WeeklyCounty: [][]float64{{5, 5}, {10, 10}, {15, 15}, {20, 20}},
	}
	perfState := func(t int) (float64, error) { return truth.WeeklyState[t], nil }
	perfCounty := func(t int) ([]float64, error) { return truth.WeeklyCounty[t], nil }
	ev, err := EvaluateForecasts(truth, 1, perfState, perfCounty, "perfect")
	if err != nil {
		t.Fatal(err)
	}
	if ev.StateRMSE != 0 || ev.CountyRMSE != 0 {
		t.Fatalf("perfect forecast scored %g/%g", ev.StateRMSE, ev.CountyRMSE)
	}
	if ev.Weeks != 3 {
		t.Fatalf("weeks %d want 3", ev.Weeks)
	}
}

// Property: surveillance is always elementwise non-negative and
// (statistically) bounded near reportRate * truth.
func TestSurveilNonNegativeQuick(t *testing.T) {
	rng := xrand.New(11)
	if err := quick.Check(func(vals [8]uint8) bool {
		truth := make([]float64, 8)
		for i, v := range vals {
			truth[i] = float64(v)
		}
		obs := Surveil(truth, 0.3, 0.2, rng)
		for _, v := range obs {
			if v < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func toMatrix(rows [][]float64) *tensor.Matrix {
	if len(rows) == 0 {
		return tensor.NewMatrix(0, 0)
	}
	return tensor.FromRows(rows)
}
