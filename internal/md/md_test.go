package md

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// steps runs n timesteps.
func (s *System) steps(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

func testParams() Params {
	return Params{H: 6, Zp: 1, Zn: 1, C: 0.05, D: 1.0}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.L = 8
	cfg.Seed = 42
	return cfg
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{H: 1, Zp: 1, Zn: 1, C: 0.05, D: 1},
		{H: 6, Zp: 0, Zn: 1, C: 0.05, D: 1},
		{H: 6, Zp: 1, Zn: 4, C: 0.05, D: 1},
		{H: 6, Zp: 1, Zn: 1, C: 0, D: 1},
		{H: 6, Zp: 1, Zn: 1, C: 0.05, D: 3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d validated: %+v", i, p)
		}
	}
}

func TestNewSystemElectroneutral(t *testing.T) {
	for _, p := range []Params{
		{H: 6, Zp: 1, Zn: 1, C: 0.05, D: 1},
		{H: 8, Zp: 2, Zn: 1, C: 0.08, D: 1},
		{H: 6, Zp: 3, Zn: 2, C: 0.05, D: 0.9},
	} {
		s, err := NewSystem(p, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		q := 0.0
		for _, c := range s.Charge {
			q += c
		}
		if math.Abs(q) > 1e-12 {
			t.Fatalf("net charge %g for %+v", q, p)
		}
		if s.N < 4 {
			t.Fatalf("suspiciously few particles: %d", s.N)
		}
	}
}

func TestNewSystemParticlesInsideSlit(t *testing.T) {
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.N; i++ {
		z := s.Pos[3*i+2]
		if z <= -s.P.H/2 || z >= s.P.H/2 {
			t.Fatalf("particle %d at z=%g outside slit ±%g", i, z, s.P.H/2)
		}
		x, y := s.Pos[3*i], s.Pos[3*i+1]
		if x < 0 || x >= s.Cfg.L || y < 0 || y >= s.Cfg.L {
			t.Fatalf("particle %d at (%g,%g) outside box", i, x, y)
		}
	}
}

func TestNewSystemRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Dt = 0
	if _, err := NewSystem(testParams(), cfg); err == nil {
		t.Fatal("zero dt accepted")
	}
	cfg = testConfig()
	cfg.SolventFrac = 1.0
	if _, err := NewSystem(testParams(), cfg); err == nil {
		t.Fatal("solvent fraction 1.0 accepted")
	}
}

func TestSolventFraction(t *testing.T) {
	cfg := testConfig()
	cfg.SolventFrac = 0.8
	s, err := NewSystem(testParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nSolvent := 0
	for _, k := range s.Kind {
		if k == Solvent {
			nSolvent++
		}
	}
	frac := float64(nSolvent) / float64(s.N)
	if math.Abs(frac-0.8) > 0.05 {
		t.Fatalf("solvent fraction %g want ~0.8", frac)
	}
}

func TestDeterministicTrajectories(t *testing.T) {
	run := func() []float64 {
		s, err := NewSystem(testParams(), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.steps(50)
		out := make([]float64, len(s.Pos))
		copy(out, s.Pos)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverged at coordinate %d", i)
		}
	}
}

func TestThermostatMaintainsTemperature(t *testing.T) {
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.steps(300) // equilibrate
	var w stats.Welford
	for i := 0; i < 500; i++ {
		s.Step()
		if i%5 == 0 {
			w.Add(s.KineticTemperature())
		}
	}
	if math.Abs(w.Mean()-1) > 0.15 {
		t.Fatalf("mean kinetic temperature %g want ~1", w.Mean())
	}
}

func TestParticlesStayConfined(t *testing.T) {
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 400; step++ {
		s.Step()
		for i := 0; i < s.N; i++ {
			z := s.Pos[3*i+2]
			if z < -s.P.H/2 || z > s.P.H/2 {
				t.Fatalf("step %d: particle %d escaped to z=%g", step, i, z)
			}
			if math.IsNaN(z) {
				t.Fatalf("step %d: NaN position", step)
			}
		}
	}
}

func TestForcesFiniteAndNewtonish(t *testing.T) {
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.steps(100)
	s.ComputeForces()
	// All forces finite.
	for i, f := range s.Force {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("non-finite force at %d", i)
		}
	}
	// Pair forces obey Newton's third law, so the total force minus the
	// wall contribution must vanish in x and y (walls act only in z).
	var fx, fy float64
	for i := 0; i < s.N; i++ {
		fx += s.Force[3*i]
		fy += s.Force[3*i+1]
	}
	if math.Abs(fx) > 1e-6*float64(s.N) || math.Abs(fy) > 1e-6*float64(s.N) {
		t.Fatalf("lateral net force (%g,%g) should vanish", fx, fy)
	}
}

func TestParallelForcesMatchSerial(t *testing.T) {
	mk := func(workers int) []float64 {
		cfg := testConfig()
		cfg.Workers = workers
		s, err := NewSystem(testParams(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.steps(20)
		s.ComputeForces()
		out := make([]float64, len(s.Force))
		copy(out, s.Force)
		return out
	}
	serial := mk(1)
	parallel := mk(4)
	for i := range serial {
		if math.Abs(serial[i]-parallel[i]) > 1e-9 {
			t.Fatalf("worker-count dependent force at %d: %g vs %g", i, serial[i], parallel[i])
		}
	}
}

func TestCellListMatchesBruteForce(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s, err := NewSystem(testParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.steps(30)
	s.ComputeForces()
	got := make([]float64, len(s.Force))
	copy(got, s.Force)

	// Brute-force recomputation with the same physics.
	cut2 := cfg.Cutoff * cfg.Cutoff
	d2 := s.P.D * s.P.D
	want := make([]float64, len(s.Force))
	for i := 0; i < s.N; i++ {
		for j := 0; j < s.N; j++ {
			if i == j {
				continue
			}
			dx := s.Pos[3*i] - s.Pos[3*j]
			dy := s.Pos[3*i+1] - s.Pos[3*j+1]
			dz := s.Pos[3*i+2] - s.Pos[3*j+2]
			dx, dy = s.minimumImage(dx, dy)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= cut2 || r2 == 0 {
				continue
			}
			var fOverR float64
			wcaCut := 1.2599210498948732 * d2
			if r2 < wcaCut {
				inv2 := d2 / r2
				inv6 := inv2 * inv2 * inv2
				fOverR += 24 * (2*inv6*inv6 - inv6) / r2
			}
			if s.Charge[i] != 0 && s.Charge[j] != 0 {
				r := math.Sqrt(r2)
				fOverR += s.Cfg.Bjerrum * s.Charge[i] * s.Charge[j] * math.Exp(-s.Kappa*r) * (1 + s.Kappa*r) / (r2 * r)
			}
			want[3*i] += fOverR * dx
			want[3*i+1] += fOverR * dy
			want[3*i+2] += fOverR * dz
		}
		want[3*i+2] += s.wallForce(s.Pos[3*i+2])
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("cell-list force mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestWallForceRepulsive(t *testing.T) {
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Near lower wall: force must push up (+z).
	if f := s.wallForce(-s.P.H/2 + 0.1); f <= 0 {
		t.Fatalf("lower wall force %g should be positive", f)
	}
	// Near upper wall: force must push down (-z).
	if f := s.wallForce(s.P.H/2 - 0.1); f >= 0 {
		t.Fatalf("upper wall force %g should be negative", f)
	}
	// Mid-slit: negligible.
	if f := s.wallForce(0); f != 0 {
		t.Fatalf("mid-slit wall force %g should be 0", f)
	}
}

func TestExactKernelRepulsiveCore(t *testing.T) {
	k := ExactSolventKernel{}
	if k.ForceOverR(0.25) <= 0 { // r=0.5 deep in the core
		t.Fatal("core should be strongly repulsive")
	}
	if k.ForceOverR(100) != 0 {
		t.Fatal("kernel should vanish beyond cutoff")
	}
	if k.ForceOverR(0) != 0 {
		t.Fatal("zero distance should return 0 (guard)")
	}
}

func TestTabulatedKernelApproximatesExact(t *testing.T) {
	// The exact kernel is C0 but not C1 at the WCA cutoff, so linear
	// interpolation carries an O(slope-jump * cell width) error in the one
	// table cell straddling the kink (~2e-2 at 4096 entries); elsewhere
	// the table is accurate to ~1e-3.
	exact := ExactSolventKernel{}
	tab := NewTabulatedKernel(exact, 0.5, 2.5, 4096)
	kink := math.Pow(2, 1.0/3)
	if err := quick.Check(func(raw uint16) bool {
		r := 0.6 + 1.8*float64(raw)/65535
		r2 := r * r
		e := exact.ForceOverR(r2)
		g := tab.ForceOverR(r2)
		tol := 1e-3 * (1 + math.Abs(e))
		if math.Abs(r2-kink) < 2*tab.dr2 {
			tol = 3e-2 * (1 + math.Abs(e))
		}
		return math.Abs(e-g) <= tol
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTabulatedKernelPanicsTinyTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size-1 table did not panic")
		}
	}()
	NewTabulatedKernel(ExactSolventKernel{}, 0.5, 2.5, 1)
}

func TestRunProducesPhysicalProfile(t *testing.T) {
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), RunConfig{EquilSteps: 200, SampleSteps: 600, SampleEvery: 5, Bins: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 120 {
		t.Fatalf("samples %d want 120", res.Samples)
	}
	if res.PeakDensity < res.MidDensity-1e-12 {
		t.Fatalf("peak %g below mid %g", res.PeakDensity, res.MidDensity)
	}
	if res.PeakDensity <= 0 {
		t.Fatal("peak density should be positive")
	}
	if math.Abs(res.MeanTemperature-1) > 0.2 {
		t.Fatalf("mean temperature %g", res.MeanTemperature)
	}
	// Profile integrates to the ion count per volume: sum(rho*binVol) = Nions.
	dz := s.P.H / float64(len(res.Profile))
	total := 0.0
	for _, rho := range res.Profile {
		total += rho * s.Cfg.L * s.Cfg.L * dz
	}
	if math.Abs(total-float64(s.N)) > 0.5 {
		t.Fatalf("profile integrates to %g particles, system has %d", total, s.N)
	}
	// Symmetrized: first and last bins equal.
	if res.Profile[0] != res.Profile[len(res.Profile)-1] {
		t.Fatal("profile not symmetrized")
	}
}

func TestRunContextCancellation(t *testing.T) {
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, RunConfig{EquilSteps: 400, SampleSteps: 1200, SampleEvery: 10, Bins: 40}); err == nil {
		t.Fatal("cancelled run should error")
	}
}

func TestDensityIncreasesWithConcentration(t *testing.T) {
	run := func(c float64) float64 {
		p := testParams()
		p.C = c
		s, err := NewSystem(p, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background(), RunConfig{EquilSteps: 150, SampleSteps: 400, SampleEvery: 5, Bins: 24})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakDensity
	}
	low, high := run(0.02), run(0.12)
	if high <= low {
		t.Fatalf("peak density should grow with concentration: %g vs %g", low, high)
	}
}

func TestOracleDims(t *testing.T) {
	o := NewOracle(testConfig(), RunConfig{EquilSteps: 50, SampleSteps: 100, SampleEvery: 5, Bins: 20})
	in, out := o.Dims()
	if in != 5 || out != 3 {
		t.Fatalf("oracle dims %d,%d want 5,3", in, out)
	}
}

func TestOracleRun(t *testing.T) {
	o := NewOracle(testConfig(), RunConfig{EquilSteps: 100, SampleSteps: 200, SampleEvery: 5, Bins: 20})
	y, err := o.Run([]float64{6, 1, 1, 0.05, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 3 {
		t.Fatalf("oracle returned %d outputs", len(y))
	}
	for i, v := range y {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("output %d = %g invalid", i, v)
		}
	}
	if y[2] < y[1] {
		t.Fatalf("peak %g below mid %g", y[2], y[1])
	}
}

func TestOracleRejectsBadInput(t *testing.T) {
	o := NewOracle(testConfig(), RunConfig{EquilSteps: 400, SampleSteps: 1200, SampleEvery: 10, Bins: 40})
	if _, err := o.Run([]float64{6, 1, 1}); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := o.Run([]float64{0.1, 1, 1, 0.05, 1}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestOracleDistinctSeedsPerRun(t *testing.T) {
	o := NewOracle(testConfig(), RunConfig{EquilSteps: 50, SampleSteps: 150, SampleEvery: 5, Bins: 20})
	x := []float64{6, 1, 1, 0.05, 1.0}
	a, err := o.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("repeated oracle runs should use fresh seeds (stochastic replicas)")
	}
}

func TestFeatureTargetNames(t *testing.T) {
	if len(FeatureNames()) != 5 || len(TargetNames()) != 3 {
		t.Fatal("name lists wrong length")
	}
}

func TestBlockingBeyondAutocorrelationTime(t *testing.T) {
	// The paper requires blocking "at a timescale that is at least greater
	// than the autocorrelation time d_c" (§III-D). Under the Langevin
	// thermostat (gamma=1) velocities decorrelate on ~1/gamma; sampling
	// every 50 steps (0.25 time units) should give tau of a handful of
	// samples, validating the default profile stride.
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.steps(200)
	series := make([]float64, 400)
	for i := range series {
		s.steps(50)
		series[i] = s.Vel[0] // x-velocity of particle 0
	}
	tau := autocorrTime(series)
	if tau > 25 {
		t.Fatalf("velocity autocorrelation time %g samples at 50-step stride", tau)
	}
}

// autocorrTime estimates the integrated autocorrelation time
// tau = 1 + 2*sum(acf), stopping the sum at the first non-positive lag
// (initial-positive-sequence truncation). I.i.d. data gives tau near 1.
func autocorrTime(xs []float64) float64 {
	m := stats.Mean(xs)
	denom := 0.0
	for _, x := range xs {
		denom += (x - m) * (x - m)
	}
	tau := 1.0
	for lag := 1; lag <= len(xs)/2 && denom > 0; lag++ {
		num := 0.0
		for i := 0; i+lag < len(xs); i++ {
			num += (xs[i] - m) * (xs[i+lag] - m)
		}
		if num <= 0 {
			break
		}
		tau += 2 * num / denom
	}
	return tau
}

func BenchmarkStep(b *testing.B) {
	s, err := NewSystem(testParams(), testConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStepSolvent(b *testing.B) {
	cfg := testConfig()
	cfg.SolventFrac = 0.85
	s, err := NewSystem(testParams(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStepSolventSurrogate(b *testing.B) {
	cfg := testConfig()
	cfg.SolventFrac = 0.85
	s, err := NewSystem(testParams(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.SetSolventKernel(NewTabulatedKernel(ExactSolventKernel{}, 0.5, 2.5, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
