package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// toyOracle is a cheap 2->1 analytic "simulation" with an optional
// artificial failure region and call counting.
type toyOracle struct {
	calls    int
	failWhen func(x []float64) bool
}

func (o *toyOracle) Dims() (int, int) { return 2, 1 }

func (o *toyOracle) Run(x []float64) ([]float64, error) {
	o.calls++
	if o.failWhen != nil && o.failWhen(x) {
		return nil, errors.New("synthetic failure")
	}
	return []float64{math.Sin(x[0]) + 0.5*x[1]}, nil
}

func newTestSurrogate(rng *xrand.Rand) *NNSurrogate {
	s := NewNNSurrogate(2, 1, []int{24}, 0.1, rng)
	s.Epochs = 150
	s.MCPasses = 20
	return s
}

func TestOracleFuncAdapter(t *testing.T) {
	o := OracleFunc{In: 1, Out: 2, F: func(x []float64) ([]float64, error) {
		return []float64{x[0], x[0] * 2}, nil
	}}
	in, out := o.Dims()
	if in != 1 || out != 2 {
		t.Fatal("dims wrong")
	}
	y, err := o.Run([]float64{3})
	if err != nil || y[1] != 6 {
		t.Fatalf("run got %v, %v", y, err)
	}
}

func TestNNSurrogateLearnsOracle(t *testing.T) {
	rng := xrand.New(1)
	oracle := &toyOracle{}
	const n = 300
	x := tensor.NewMatrix(n, 2)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Range(-2, 2))
		x.Set(i, 1, rng.Range(-1, 1))
		out, _ := oracle.Run(x.Row(i))
		y.Set(i, 0, out[0])
	}
	s := newTestSurrogate(rng)
	if s.Trained() {
		t.Fatal("surrogate trained before Train")
	}
	if err := s.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if !s.Trained() {
		t.Fatal("Trained() false after Train")
	}
	worst := 0.0
	for i := 0; i < 20; i++ {
		in := []float64{rng.Range(-2, 2), rng.Range(-1, 1)}
		truth, _ := oracle.Run(in)
		pred := Predict(s, in)
		if e := math.Abs(pred[0] - truth[0]); e > worst {
			worst = e
		}
	}
	if worst > 0.25 {
		t.Fatalf("surrogate worst error %g", worst)
	}
}

func TestNNSurrogateUQPositive(t *testing.T) {
	rng := xrand.New(2)
	x := tensor.NewMatrix(50, 2)
	y := tensor.NewMatrix(50, 1)
	for i := 0; i < 50; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
		y.Set(i, 0, x.At(i, 0))
	}
	s := newTestSurrogate(rng)
	if err := s.Train(x, y); err != nil {
		t.Fatal(err)
	}
	_, std := PredictWithUQ(s, []float64{0.5, 0.5})
	if std[0] <= 0 {
		t.Fatal("MC-dropout surrogate should report positive uncertainty")
	}
}

func TestNNSurrogateTrainErrors(t *testing.T) {
	rng := xrand.New(3)
	s := newTestSurrogate(rng)
	if err := s.Train(tensor.NewMatrix(0, 2), tensor.NewMatrix(0, 1)); err == nil {
		t.Fatal("empty training set should error")
	}
	if err := s.Train(tensor.NewMatrix(5, 3), tensor.NewMatrix(5, 1)); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestNNSurrogatePanicsUntrained(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Predict before Train did not panic")
		}
	}()
	Predict(newTestSurrogate(xrand.New(4)), []float64{0, 0})
}

func TestEffectiveSpeedupFormula(t *testing.T) {
	// Worked example: Tseq=100, Ttrain=100, Tlearn=1, Tlookup=0.01,
	// Ntrain=10, Nlookup=1000.
	s := EffectiveSpeedup(100, 100, 1, 0.01, 1000, 10)
	want := 100.0 * 1010 / (0.01*1000 + 101*10)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("speedup %g want %g", s, want)
	}
}

func TestEffectiveSpeedupNoMLLimit(t *testing.T) {
	// Nlookup = 0 reduces to Tseq/Ttrain exactly (Tlearn=0).
	s := EffectiveSpeedup(100, 5, 0, 1, 0, 50)
	if math.Abs(s-20) > 1e-12 {
		t.Fatalf("no-ML limit %g want 20", s)
	}
	if SpeedupNoML(100, 5) != 20 {
		t.Fatal("SpeedupNoML wrong")
	}
}

func TestEffectiveSpeedupInfiniteLookupLimit(t *testing.T) {
	// As Nlookup/Ntrain -> inf the speedup approaches Tseq/Tlookup.
	limit := SpeedupInfiniteLookup(100, 0.001)
	s := EffectiveSpeedup(100, 100, 1, 0.001, 1e12, 1)
	if math.Abs(s-limit)/limit > 1e-3 {
		t.Fatalf("large-lookup speedup %g want ~%g", s, limit)
	}
}

func TestEffectiveSpeedupDegenerate(t *testing.T) {
	if !math.IsNaN(EffectiveSpeedup(1, 0, 0, 0, 0, 0)) {
		t.Fatal("zero denominator should be NaN")
	}
}

// Property: speedup is monotone non-decreasing in Nlookup when the lookup
// is cheaper than the simulation.
func TestSpeedupMonotoneQuick(t *testing.T) {
	if err := quick.Check(func(aRaw, bRaw uint8) bool {
		n1 := float64(aRaw) + 1
		n2 := n1 + float64(bRaw) + 1
		s1 := EffectiveSpeedup(100, 100, 1, 0.01, n1, 10)
		s2 := EffectiveSpeedup(100, 100, 1, 0.01, n2, 10)
		return s2 >= s1-1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: speedup is bounded above by Tseq/Tlookup.
func TestSpeedupBoundedQuick(t *testing.T) {
	if err := quick.Check(func(nlRaw, ntRaw uint8) bool {
		nl := float64(nlRaw) + 1
		nt := float64(ntRaw) + 1
		s := EffectiveSpeedup(100, 100, 1, 0.01, nl, nt)
		return s <= SpeedupInfiniteLookup(100, 0.01)+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupCurveMonotone(t *testing.T) {
	ratios := []float64{0.1, 1, 10, 100, 1000}
	curve := SpeedupCurve(100, 100, 1, 0.001, 100, ratios)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("speedup curve not monotone at %d: %v", i, curve)
		}
	}
}

func TestLedgerAccounting(t *testing.T) {
	var l Ledger
	// Oracle runs reach the ledger the way a fan-out charges them: two
	// successful runs of 100 and 200 and one failure of 5, in one record.
	var tally fanoutTally
	tally.runs.Store(2)
	tally.runTime.Store(300)
	tally.failed.Store(1)
	tally.failedTime.Store(5)
	tally.charge(func(f func(*Ledger)) { f(&l) })
	l.RecordLookup(2)
	l.RecordLookup(4)
	l.RecordLookup(6)
	l.RecordTraining(1000, 2)
	l.RecordRejectedLookup(1)
	if l.NTrain != 2 || l.NFailed != 1 || l.FailedTime != 5 {
		t.Fatalf("charged %d runs, %d failed in %v; want 2, 1 in 5ns", l.NTrain, l.NFailed, l.FailedTime)
	}
	if l.MeanSimTime() != 150 {
		t.Fatalf("mean sim time %v", l.MeanSimTime())
	}
	if l.MeanLookupTime() != 4 {
		t.Fatalf("mean lookup time %v", l.MeanLookupTime())
	}
	if l.MeanLearnTimePerSample() != 500 {
		t.Fatalf("mean learn time %v", l.MeanLearnTimePerSample())
	}
	if f := l.SurrogateFraction(); math.Abs(f-0.6) > 1e-12 {
		t.Fatalf("surrogate fraction %g want 0.6", f)
	}
	if s := l.String(); s == "" {
		t.Fatal("empty ledger string")
	}
	if es := l.EffectiveSpeedup(1); math.IsNaN(es) || es <= 0 {
		t.Fatalf("ledger effective speedup %g", es)
	}
}

func TestLedgerEmptySpeedupNaN(t *testing.T) {
	var l Ledger
	if !math.IsNaN(l.EffectiveSpeedup(1)) {
		t.Fatal("empty ledger speedup should be NaN")
	}
}

func TestTaxonomyCategories(t *testing.T) {
	wantML := map[Interface]Category{
		HPCrunsML:           HPCforML,
		SimulationTrainedML: HPCforML,
		MLautotuning:        MLforHPC,
		MLafterHPC:          MLforHPC,
		MLaroundHPC:         MLforHPC,
		MLControl:           MLforHPC,
	}
	if int(HPCrunsML) != 0 || int(MLControl) != 5 {
		t.Fatalf("interfaces number %d..%d, want 0..5", int(HPCrunsML), int(MLControl))
	}
	for i := HPCrunsML; i <= MLControl; i++ {
		if i.Category() != wantML[i] {
			t.Fatalf("%v categorized as %v", i, i.Category())
		}
		if i.String() == "unknown" {
			t.Fatalf("interface %d has no name", int(i))
		}
	}
	if HPCforML.String() != "HPCforML" || MLforHPC.String() != "MLforHPC" {
		t.Fatal("category names wrong")
	}
	if Interface(99).String() != "unknown" {
		t.Fatal("out-of-range interface should be unknown")
	}
}
