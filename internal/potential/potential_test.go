package potential

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func makeDataset(t testing.TB, oracle *AbInitio, n, atoms int, seed uint64) ([]*Configuration, []float64) {
	t.Helper()
	rng := xrand.New(seed)
	base, err := RandomConfiguration(atoms, 4.0, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	configs := make([]*Configuration, n)
	energies := make([]float64, n)
	for i := 0; i < n; i++ {
		configs[i] = Perturb(base, 0.25, rng)
		energies[i] = oracle.Energy(configs[i])
	}
	return configs, energies
}

func TestRandomConfigurationRespectsMinDist(t *testing.T) {
	rng := xrand.New(1)
	c, err := RandomConfiguration(12, 5.0, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.NAtoms() != 12 {
		t.Fatalf("atom count %d", c.NAtoms())
	}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if d := c.dist(i, j); d < 1.0 {
				t.Fatalf("atoms %d,%d at distance %g < minDist", i, j, d)
			}
		}
	}
}

func TestRandomConfigurationImpossiblePacking(t *testing.T) {
	rng := xrand.New(2)
	if _, err := RandomConfiguration(1000, 2.0, 1.5, rng); err == nil {
		t.Fatal("impossible packing should error")
	}
}

func TestAbInitioEnergyFinite(t *testing.T) {
	oracle := NewAbInitio()
	rng := xrand.New(3)
	for i := 0; i < 10; i++ {
		c, err := RandomConfiguration(8, 4.0, 0.9, rng)
		if err != nil {
			t.Fatal(err)
		}
		e := oracle.Energy(c)
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("non-finite energy %g", e)
		}
	}
}

func TestAbInitioInvariances(t *testing.T) {
	// The reference energy must be translation invariant and
	// permutation invariant (it depends only on distances).
	oracle := NewAbInitio()
	rng := xrand.New(4)
	c, err := RandomConfiguration(6, 4.0, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	e0 := oracle.Energy(c)
	// Translate.
	shifted := &Configuration{Pos: make([]float64, len(c.Pos))}
	for i := 0; i < c.NAtoms(); i++ {
		shifted.Pos[3*i] = c.Pos[3*i] + 10
		shifted.Pos[3*i+1] = c.Pos[3*i+1] - 3
		shifted.Pos[3*i+2] = c.Pos[3*i+2] + 0.5
	}
	if math.Abs(oracle.Energy(shifted)-e0) > 1e-9 {
		t.Fatal("energy not translation invariant")
	}
	// Permute atoms 0 and 3.
	perm := &Configuration{Pos: append([]float64(nil), c.Pos...)}
	for d := 0; d < 3; d++ {
		perm.Pos[d], perm.Pos[9+d] = perm.Pos[9+d], perm.Pos[d]
	}
	if math.Abs(oracle.Energy(perm)-e0) > 1e-9 {
		t.Fatal("energy not permutation invariant")
	}
}

func TestAbInitioRotationInvariantQuick(t *testing.T) {
	oracle := NewAbInitio()
	rng := xrand.New(5)
	c, err := RandomConfiguration(5, 4.0, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	e0 := oracle.Energy(c)
	if err := quick.Check(func(angleRaw uint8) bool {
		theta := 2 * math.Pi * float64(angleRaw) / 256
		cos, sin := math.Cos(theta), math.Sin(theta)
		rot := &Configuration{Pos: make([]float64, len(c.Pos))}
		for i := 0; i < c.NAtoms(); i++ {
			x, y, z := c.Pos[3*i], c.Pos[3*i+1], c.Pos[3*i+2]
			rot.Pos[3*i] = cos*x - sin*y
			rot.Pos[3*i+1] = sin*x + cos*y
			rot.Pos[3*i+2] = z
		}
		return math.Abs(oracle.Energy(rot)-e0) < 1e-8
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetryFunctionInvariances(t *testing.T) {
	sf := DefaultSymmetryFunctions()
	rng := xrand.New(6)
	c, err := RandomConfiguration(6, 3.5, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	f0 := sf.Compute(c)
	// Translation invariance.
	shifted := &Configuration{Pos: make([]float64, len(c.Pos))}
	for i := range c.Pos {
		shifted.Pos[i] = c.Pos[i] + 7.3
	}
	f1 := sf.Compute(shifted)
	for i := range f0 {
		for k := range f0[i] {
			if math.Abs(f0[i][k]-f1[i][k]) > 1e-9 {
				t.Fatal("descriptors not translation invariant")
			}
		}
	}
	// Swapping two NEIGHBOR atoms must not change atom 0's descriptor
	// (exchange invariance).
	perm := &Configuration{Pos: append([]float64(nil), c.Pos...)}
	for d := 0; d < 3; d++ {
		perm.Pos[3+d], perm.Pos[6+d] = perm.Pos[6+d], perm.Pos[3+d]
	}
	f2 := sf.Compute(perm)
	for k := range f0[0] {
		if math.Abs(f0[0][k]-f2[0][k]) > 1e-9 {
			t.Fatal("descriptor of atom 0 changed under neighbor exchange")
		}
	}
}

func TestSymmetryFunctionDim(t *testing.T) {
	sf := DefaultSymmetryFunctions()
	if sf.Dim() != 8 {
		t.Fatalf("dim %d want 8", sf.Dim())
	}
	rng := xrand.New(7)
	c, _ := RandomConfiguration(4, 3.5, 1.0, rng)
	f := sf.Compute(c)
	if len(f) != 4 || len(f[0]) != 8 {
		t.Fatalf("descriptor shape %dx%d", len(f), len(f[0]))
	}
}

func TestCutoffFunction(t *testing.T) {
	sf := DefaultSymmetryFunctions()
	if sf.cutoffFn(0) != 1 {
		t.Fatal("cutoff at r=0 should be 1")
	}
	if sf.cutoffFn(sf.Cutoff) != 0 || sf.cutoffFn(sf.Cutoff+1) != 0 {
		t.Fatal("cutoff beyond Rc should be 0")
	}
	// Monotone decreasing.
	prev := 1.0
	for r := 0.1; r < sf.Cutoff; r += 0.1 {
		v := sf.cutoffFn(r)
		if v > prev+1e-12 {
			t.Fatal("cutoff function not monotone")
		}
		prev = v
	}
}

func TestNNPotentialLearnsOracle(t *testing.T) {
	oracle := NewAbInitio()
	oracle.SCFIters = 5 // cheaper labels for the test
	trainC, trainE := makeDataset(t, oracle, 120, 8, 10)
	testC, testE := makeDataset(t, oracle, 30, 8, 11)
	sf := DefaultSymmetryFunctions()
	p := NewNNPotential(sf, []int{24, 24}, xrand.New(12))
	p.Epochs = 120
	if err := p.Fit(trainC, trainE); err != nil {
		t.Fatal(err)
	}
	if !p.trained || p.trainSeen != 120 {
		t.Fatal("training state wrong")
	}
	mae := p.MAE(testC, testE)
	// Baseline: predicting the mean training energy.
	meanE := stats.Mean(trainE)
	basePred := make([]float64, len(testE))
	for i := range basePred {
		basePred[i] = meanE
	}
	baseMAE := stats.MAE(basePred, testE)
	if mae >= baseMAE {
		t.Fatalf("NN potential MAE %g not better than mean baseline %g", mae, baseMAE)
	}
}

func TestNNPotentialErrors(t *testing.T) {
	sf := DefaultSymmetryFunctions()
	p := NewNNPotential(sf, []int{8}, xrand.New(13))
	if err := p.Fit(nil, nil); err == nil {
		t.Fatal("empty fit should error")
	}
	rng := xrand.New(14)
	c, _ := RandomConfiguration(4, 3.5, 1.0, rng)
	if err := p.Fit([]*Configuration{c}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestNNPotentialPanicsUntrained(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("predict before fit did not panic")
		}
	}()
	sf := DefaultSymmetryFunctions()
	p := NewNNPotential(sf, []int{8}, xrand.New(15))
	c, _ := RandomConfiguration(4, 3.5, 1.0, xrand.New(16))
	p.PredictEnergy(c)
}

func TestCommitteeSpread(t *testing.T) {
	oracle := NewAbInitio()
	oracle.SCFIters = 3
	trainC, trainE := makeDataset(t, oracle, 40, 6, 20)
	sf := DefaultSymmetryFunctions()
	com := NewCommittee(3, sf, []int{12}, xrand.New(21))
	for _, m := range com.Members {
		m.Epochs = 40
	}
	if err := com.Fit(trainC, trainE); err != nil {
		t.Fatal(err)
	}
	// In-distribution point: committee must produce finite mean and some
	// spread (members differ by init).
	mean, std := com.Predict(trainC[0])
	if math.IsNaN(mean) || std < 0 {
		t.Fatalf("committee prediction invalid: %g ± %g", mean, std)
	}
	// Far out-of-distribution: spread should typically exceed
	// in-distribution spread.
	far, _ := RandomConfiguration(6, 12.0, 2.0, xrand.New(22))
	_, stdFar := com.Predict(far)
	if stdFar <= 0 {
		t.Fatal("committee should disagree out of distribution")
	}
}

func TestActiveLearnCurves(t *testing.T) {
	oracle := NewAbInitio()
	oracle.SCFIters = 3
	rng := xrand.New(30)
	base, err := RandomConfiguration(6, 3.5, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]*Configuration, 80)
	for i := range pool {
		pool[i] = Perturb(base, 0.3, rng)
	}
	testC := make([]*Configuration, 20)
	testE := make([]float64, 20)
	for i := range testC {
		testC[i] = Perturb(base, 0.3, rng)
		testE[i] = oracle.Energy(testC[i])
	}
	sf := DefaultSymmetryFunctions()
	cfg := ActiveLearnConfig{
		Strategy: ALCommitteeVariance, CommitteeSize: 2, Hidden: []int{12},
		InitialSamples: 10, BatchSize: 10, MaxSamples: 40, Seed: 31,
	}
	curve, err := ActiveLearn(oracle, sf, pool, testC, testE, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) < 2 {
		t.Fatalf("curve too short: %d", len(curve))
	}
	if curve[len(curve)-1].Samples != 40 {
		t.Fatalf("final samples %d want 40", curve[len(curve)-1].Samples)
	}
	for _, r := range curve {
		if math.IsNaN(r.TestMAE) {
			t.Fatal("NaN in learning curve")
		}
	}
}

func TestActiveLearnBadConfig(t *testing.T) {
	oracle := NewAbInitio()
	sf := DefaultSymmetryFunctions()
	if _, err := ActiveLearn(oracle, sf, nil, nil, nil, ActiveLearnConfig{InitialSamples: 5}); err == nil {
		t.Fatal("empty pool should error")
	}
}

func TestSamplesToReachMAE(t *testing.T) {
	curve := []ALRound{{10, 2.0}, {20, 1.0}, {30, 0.4}}
	if SamplesToReachMAE(curve, 1.0) != 20 {
		t.Fatal("threshold lookup wrong")
	}
	if SamplesToReachMAE(curve, 0.1) != -1 {
		t.Fatal("unreachable threshold should be -1")
	}
}

func TestALStrategyString(t *testing.T) {
	if ALRandom.String() != "random" || ALCommitteeVariance.String() != "committee-variance" {
		t.Fatal("strategy names wrong")
	}
}

func TestPerturbChangesCoordinates(t *testing.T) {
	rng := xrand.New(40)
	c, _ := RandomConfiguration(5, 4.0, 1.0, rng)
	p := Perturb(c, 0.1, rng)
	if p.NAtoms() != c.NAtoms() {
		t.Fatal("atom count changed")
	}
	same := 0
	for i := range c.Pos {
		if p.Pos[i] == c.Pos[i] {
			same++
		}
	}
	if same > 1 {
		t.Fatal("perturbation left coordinates unchanged")
	}
}

func BenchmarkAbInitioEnergy(b *testing.B) {
	oracle := NewAbInitio()
	c, err := RandomConfiguration(16, 4.5, 1.0, xrand.New(50))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.Energy(c)
	}
}

func BenchmarkNNPotentialEnergy(b *testing.B) {
	oracle := NewAbInitio()
	oracle.SCFIters = 3
	trainC, trainE := makeDataset(b, oracle, 30, 16, 51)
	sf := DefaultSymmetryFunctions()
	p := NewNNPotential(sf, []int{24, 24}, xrand.New(52))
	p.Epochs = 20
	if err := p.Fit(trainC, trainE); err != nil {
		b.Fatal(err)
	}
	c := trainC[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictEnergy(c)
	}
}
