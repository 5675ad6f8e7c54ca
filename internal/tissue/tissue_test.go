package tissue

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func stableParams() PDEParams {
	return PDEParams{Diff: 0.5, VX: 0.1, VY: 0, Decay: 0, Dt: 0.1}
}

// total is the integral of u over the domain (sum * cell area).
func (f *Field) total() float64 {
	s := 0.0
	for _, v := range f.U {
		s += v
	}
	return s * f.H * f.H
}

// prolong returns the 2x refined field (piecewise-constant injection).
func prolong(c *Field) *Field {
	f := NewField(c.NX*2, c.NY*2, c.H/2)
	for j := 0; j < c.NY; j++ {
		for i := 0; i < c.NX; i++ {
			v := c.At(i, j)
			f.Set(2*i, 2*j, v)
			f.Set(2*i+1, 2*j, v)
			f.Set(2*i, 2*j+1, v)
			f.Set(2*i+1, 2*j+1, v)
		}
	}
	return f
}

// snapshot returns a trained stencil that shares ls's compiled program
// and owns its workspaces, so it can Advance beside ls.
func (ls *LearnedStencil) snapshot() *LearnedStencil {
	return &LearnedStencil{
		K: ls.K, Patch: ls.Patch, Hidden: ls.Hidden,
		prog:    ls.prog,
		scaler:  ls.scaler, // read-only after Train
		trained: true,
		rng:     ls.rng.Split(),
	}
}

// shortCircuitError runs init through K*jumps explicit fine micro-steps
// and through jumps coarse learned sweeps, and returns the coarse-grid L2
// difference.
func shortCircuitError(init *Field, fineSolver *Solver, ls *LearnedStencil, jumps int) float64 {
	explicit := init.Clone()
	fineSolver.Steps(explicit, ls.K*jumps)
	coarse := Restrict(init)
	ls.Advance(coarse, ls.K*jumps)
	return L2Diff(Restrict(explicit), coarse)
}

func TestFieldIndexingPeriodic(t *testing.T) {
	f := NewField(8, 8, 1)
	f.Set(0, 0, 5)
	if f.At(8, 8) != 5 || f.At(-8, -8) != 5 {
		t.Fatal("periodic wrapping broken")
	}
	f.Set(-1, 2, 7)
	if f.At(7, 2) != 7 {
		t.Fatal("negative index wrapping broken")
	}
}

func TestNewFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny field did not panic")
		}
	}()
	NewField(2, 8, 1)
}

func TestStabilityCheck(t *testing.T) {
	p := stableParams()
	if !p.StabilityOK(1) {
		t.Fatal("stable parameters rejected")
	}
	p.Dt = 10
	if p.StabilityOK(1) {
		t.Fatal("unstable dt accepted")
	}
	p = stableParams()
	p.VX = 100
	if p.StabilityOK(1) {
		t.Fatal("unstable advection accepted")
	}
	if (PDEParams{Diff: 1, Dt: 0}).StabilityOK(1) {
		t.Fatal("zero dt accepted")
	}
}

func TestNewSolverPanicsOnUnstable(t *testing.T) {
	f := NewField(8, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unstable solver construction did not panic")
		}
	}()
	NewSolver(PDEParams{Diff: 10, Dt: 1}, f)
}

func TestDiffusionConservesMass(t *testing.T) {
	// Pure diffusion on a periodic grid conserves the integral of u.
	f := NewField(32, 32, 1)
	f.GaussianBump(16, 16, 3, 1)
	before := f.total()
	s := NewSolver(PDEParams{Diff: 0.5, Dt: 0.2}, f)
	s.Steps(f, 100)
	after := f.total()
	if math.Abs(after-before) > 1e-8*math.Abs(before) {
		t.Fatalf("mass not conserved: %g -> %g", before, after)
	}
}

func TestDiffusionSpreadsPeak(t *testing.T) {
	f := NewField(32, 32, 1)
	f.GaussianBump(16, 16, 2, 1)
	peak0 := f.At(16, 16)
	s := NewSolver(PDEParams{Diff: 0.5, Dt: 0.2}, f)
	s.Steps(f, 50)
	if f.At(16, 16) >= peak0 {
		t.Fatal("diffusion did not lower the peak")
	}
	for _, v := range f.U {
		if v < -1e-9 {
			t.Fatal("diffusion produced negative concentration")
		}
	}
}

func TestDecayReducesMass(t *testing.T) {
	f := NewField(16, 16, 1)
	f.GaussianBump(8, 8, 3, 1)
	before := f.total()
	s := NewSolver(PDEParams{Diff: 0.1, Decay: 0.1, Dt: 0.2}, f)
	s.Steps(f, 20)
	if f.total() >= before {
		t.Fatal("decay did not reduce mass")
	}
}

func TestAdvectionMovesCenterOfMass(t *testing.T) {
	f := NewField(64, 16, 1)
	f.GaussianBump(16, 8, 2, 1)
	com := func(f *Field) float64 {
		num, den := 0.0, 0.0
		for i := 0; i < f.NX; i++ {
			for j := 0; j < f.NY; j++ {
				num += float64(i) * f.At(i, j)
				den += f.At(i, j)
			}
		}
		return num / den
	}
	before := com(f)
	s := NewSolver(PDEParams{Diff: 0.05, VX: 0.5, Dt: 0.2}, f)
	s.Steps(f, 60)
	after := com(f)
	if after <= before+2 {
		t.Fatalf("advection moved center of mass only %g -> %g", before, after)
	}
}

func TestSolverParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) *Field {
		f := NewField(32, 32, 1)
		f.GaussianBump(10, 20, 3, 1)
		s := NewSolver(stableParams(), f)
		s.Workers = workers
		s.Steps(f, 30)
		return f
	}
	a, b := mk(1), mk(4)
	if d := L2Diff(a, b); d > 1e-12 {
		t.Fatalf("parallel solver differs from serial by %g", d)
	}
}

func TestSourceTermAddsMass(t *testing.T) {
	f := NewField(16, 16, 1)
	s := NewSolver(PDEParams{Diff: 0.1, Dt: 0.2}, f)
	s.Source = make([]float64, len(f.U))
	s.Source[f.idx(8, 8)] = 1
	s.Steps(f, 10)
	if f.total() <= 0 {
		t.Fatal("source did not add mass")
	}
}

func TestRestrictProlongRoundTrip(t *testing.T) {
	f := NewField(16, 16, 1)
	f.GaussianBump(8, 8, 3, 1)
	c := Restrict(f)
	if c.NX != 8 || c.NY != 8 || c.H != 2 {
		t.Fatalf("coarse field %dx%d h=%g", c.NX, c.NY, c.H)
	}
	// Restriction preserves total mass (block average * 4 cells * (h/2)^2).
	if math.Abs(c.total()-f.total()) > 1e-9 {
		t.Fatalf("restriction changed mass %g -> %g", f.total(), c.total())
	}
	p := prolong(c)
	if p.NX != 16 || math.Abs(p.total()-c.total()) > 1e-9 {
		t.Fatal("prolongation inconsistent")
	}
	// prolong(Restrict(constant)) is identity for constant fields.
	k := NewField(8, 8, 1)
	k.U[0] = 0
	for i := range k.U {
		k.U[i] = 3.5
	}
	rt := prolong(Restrict(k))
	for i := range rt.U {
		if math.Abs(rt.U[i]-3.5) > 1e-12 {
			t.Fatal("constant field not preserved by restrict/prolong")
		}
	}
}

func TestRestrictOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd restrict did not panic")
		}
	}()
	Restrict(NewField(9, 8, 1))
}

func TestTissueCellsLiveAndDivide(t *testing.T) {
	f := NewField(24, 24, 1)
	for i := range f.U {
		f.U[i] = 2 // plentiful nutrient
	}
	s := NewSolver(PDEParams{Diff: 0.2, Dt: 0.2}, f)
	tis, err := NewTissue(f, s, DefaultCellParams(), 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tis.AliveCount() != 10 {
		t.Fatalf("initial alive %d", tis.AliveCount())
	}
	tis.Steps(10)
	if tis.AliveCount() <= 10 {
		t.Fatalf("cells did not divide in nutrient-rich medium: %d", tis.AliveCount())
	}
}

func TestTissueCellsStarve(t *testing.T) {
	f := NewField(16, 16, 1) // zero nutrient
	s := NewSolver(PDEParams{Diff: 0.2, Dt: 0.2}, f)
	cp := DefaultCellParams()
	cp.Metabolism = 0.5
	tis, err := NewTissue(f, s, cp, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tis.Steps(10)
	if tis.AliveCount() != 0 {
		t.Fatalf("cells survived starvation: %d alive", tis.AliveCount())
	}
}

func TestTissueSecretionFeedsField(t *testing.T) {
	f := NewField(16, 16, 1)
	s := NewSolver(PDEParams{Diff: 0.2, Dt: 0.2}, f)
	cp := DefaultCellParams()
	cp.SecretionRate = 1
	cp.UptakeRate = 0
	cp.Metabolism = 0
	tis, err := NewTissue(f, s, cp, 5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tis.Steps(5)
	if f.total() <= 0 {
		t.Fatal("secretion did not add chemical")
	}
}

func TestNewTissueValidation(t *testing.T) {
	f := NewField(8, 8, 1)
	s := NewSolver(stableParams(), f)
	if _, err := NewTissue(f, s, DefaultCellParams(), 1000, 2, 1); err == nil {
		t.Fatal("overfull tissue accepted")
	}
	if _, err := NewTissue(f, s, DefaultCellParams(), 4, 0, 1); err == nil {
		t.Fatal("zero micro-steps accepted")
	}
}

func TestLearnedStencilApproximatesFineSolver(t *testing.T) {
	fine := NewField(32, 32, 1)
	params := PDEParams{Diff: 0.4, VX: 0, VY: 0, Decay: 0.01, Dt: 0.2}
	fineSolver := NewSolver(params, fine)
	ls := NewLearnedStencil(8, 1, 0, xrand.New(5))
	tc := DefaultTrainConfig()
	tc.Fields = 10
	tc.Epochs = 150
	if err := ls.Train(fine, fineSolver, tc); err != nil {
		t.Fatal(err)
	}
	// Fresh test field.
	test := NewField(32, 32, 1)
	test.GaussianBump(20, 12, 3, 1.2)
	// The coarse learned propagator should track the restricted fine
	// solution to within a few percent of the field scale (~1).
	if e := shortCircuitError(test, NewSolver(params, test), ls, 3); e > 0.08 {
		t.Fatalf("short-circuit L2 error %g too large", e)
	}
}

// TestLearnedStencilSnapshot checks snapshots advance fields identically
// to the original and stay independent: concurrent snapshot sweeps (which
// would race on the original's shared workspaces) produce exactly the
// sequential result. Run with -race.
func TestLearnedStencilSnapshot(t *testing.T) {
	fine := NewField(24, 24, 1)
	params := PDEParams{Diff: 0.4, VX: 0, VY: 0, Decay: 0.01, Dt: 0.2}
	ls := NewLearnedStencil(4, 1, 0, xrand.New(7))
	tc := DefaultTrainConfig()
	tc.Fields = 6
	tc.Epochs = 60
	if err := ls.Train(fine, NewSolver(params, fine), tc); err != nil {
		t.Fatal(err)
	}
	mk := func() *Field {
		f := NewField(12, 12, 1)
		f.GaussianBump(6, 6, 2, 1)
		return f
	}
	want := mk()
	ls.Advance(want, ls.K)

	const workers = 4
	fields := make([]*Field, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		snap := ls.snapshot()
		fields[i] = mk()
		go func(s *LearnedStencil, f *Field) {
			defer wg.Done()
			s.Advance(f, s.K)
		}(snap, fields[i])
	}
	wg.Wait()
	for i, f := range fields {
		if d := L2Diff(want, f); d != 0 {
			t.Fatalf("snapshot %d diverged from original by %g", i, d)
		}
	}
}

func TestLearnedStencilUntrainedErrors(t *testing.T) {
	ls := NewLearnedStencil(4, 1, 0, xrand.New(6))
	f := NewField(8, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("untrained Advance did not panic")
		}
	}()
	ls.Advance(f, 4)
}

func TestLearnedStencilAdvanceMultipleCheck(t *testing.T) {
	fine := NewField(16, 16, 1)
	params := PDEParams{Diff: 0.3, Dt: 0.2}
	ls := NewLearnedStencil(4, 1, 0, xrand.New(7))
	tc := DefaultTrainConfig()
	tc.Fields = 3
	tc.SamplesPerField = 100
	tc.Epochs = 30
	if err := ls.Train(fine, NewSolver(params, fine), tc); err != nil {
		t.Fatal(err)
	}
	coarse := Restrict(fine)
	defer func() {
		if recover() == nil {
			t.Fatal("non-multiple advance did not panic")
		}
	}()
	ls.Advance(coarse, 6) // not a multiple of 4
}

func TestTissueWithLearnedStepper(t *testing.T) {
	// The tissue must run end-to-end with the surrogate stepper swapped in
	// (the actual short-circuit deployment).
	fine := NewField(16, 16, 1)
	params := PDEParams{Diff: 0.3, Dt: 0.2}
	ls := NewLearnedStencil(4, 1, 0, xrand.New(8))
	tc := DefaultTrainConfig()
	tc.Fields = 4
	tc.SamplesPerField = 150
	tc.Epochs = 50
	if err := ls.Train(fine, NewSolver(params, fine), tc); err != nil {
		t.Fatal(err)
	}
	coarse := NewField(8, 8, 2)
	for i := range coarse.U {
		coarse.U[i] = 1.5
	}
	sol := NewSolver(PDEParams{Diff: 0.3, Dt: 0.2}, coarse)
	tis, err := NewTissue(coarse, sol, DefaultCellParams(), 6, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	tis.Stepper = ls
	tis.Steps(3)
	for _, v := range coarse.U {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("invalid field value %g under surrogate stepper", v)
		}
	}
}

// Property: one explicit step is linear in the field for Decay-only
// dynamics: step(a*u) == a*step(u).
func TestSolverLinearityQuick(t *testing.T) {
	rng := xrand.New(10)
	if err := quick.Check(func(scaleRaw uint8) bool {
		scale := 0.5 + float64(scaleRaw)/64
		f1 := NewField(16, 16, 1)
		f1.GaussianBump(8, 8, 2, 1)
		f2 := f1.Clone()
		for i := range f2.U {
			f2.U[i] *= scale
		}
		p := PDEParams{Diff: 0.3, VX: 0.1, Decay: 0.05, Dt: 0.2}
		NewSolver(p, f1).Steps(f1, 5)
		NewSolver(p, f2).Steps(f2, 5)
		for i := range f1.U {
			if math.Abs(f2.U[i]-scale*f1.U[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

func BenchmarkExplicitStep32(b *testing.B) {
	f := NewField(32, 32, 1)
	f.GaussianBump(16, 16, 3, 1)
	s := NewSolver(stableParams(), f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(f)
	}
}

func BenchmarkExplicitStep128(b *testing.B) {
	f := NewField(128, 128, 1)
	f.GaussianBump(64, 64, 10, 1)
	s := NewSolver(stableParams(), f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(f)
	}
}
