package md

import (
	"context"
	"fmt"
	"math"
)

// Step advances the system one Langevin velocity-Verlet timestep (the
// Grønbech-Jensen/Farago-style splitting: deterministic half-kicks plus an
// Ornstein–Uhlenbeck velocity update keeps kT=1 on average).
func (s *System) Step() {
	dt := s.Cfg.Dt
	half := 0.5 * dt
	// First half-kick + drift.
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			s.Vel[3*i+d] += half * s.Force[3*i+d]
		}
		s.Pos[3*i] = wrap(s.Pos[3*i]+dt*s.Vel[3*i], s.Cfg.L)
		s.Pos[3*i+1] = wrap(s.Pos[3*i+1]+dt*s.Vel[3*i+1], s.Cfg.L)
		s.Pos[3*i+2] += dt * s.Vel[3*i+2]
	}
	s.clampToSlit()
	s.ComputeForces()
	// Second half-kick.
	for i := range s.Vel {
		s.Vel[i] += half * s.Force[i]
	}
	// Ornstein–Uhlenbeck thermostat (exact for the velocity process).
	c1 := math.Exp(-s.Cfg.Gamma * dt)
	c2 := math.Sqrt(1 - c1*c1)
	for i := range s.Vel {
		s.Vel[i] = c1*s.Vel[i] + c2*s.rng.NormFloat64()
	}
	s.stepNum++
}

// clampToSlit reflects any particle that integrated past a wall back into
// the slit (a rare event under the repulsive walls, but it guarantees the
// cell list's z-range invariant).
func (s *System) clampToSlit() {
	zMax := s.P.H/2 - 1e-6
	for i := 0; i < s.N; i++ {
		z := s.Pos[3*i+2]
		if math.IsNaN(z) || math.IsInf(z, 0) {
			// Defensive reset; with force capping this should not occur,
			// but a non-finite coordinate must never reach the cell list.
			s.Pos[3*i+2] = 0
			s.Vel[3*i+2] = 0
			continue
		}
		if z > zMax {
			s.Pos[3*i+2] = 2*zMax - z
			if s.Pos[3*i+2] < -zMax {
				s.Pos[3*i+2] = 0
			}
			s.Vel[3*i+2] = -s.Vel[3*i+2]
		} else if z < -zMax {
			s.Pos[3*i+2] = -2*zMax - z
			if s.Pos[3*i+2] > zMax {
				s.Pos[3*i+2] = 0
			}
			s.Vel[3*i+2] = -s.Vel[3*i+2]
		}
	}
}

// RunConfig controls a production run.
type RunConfig struct {
	// EquilSteps are discarded before sampling begins.
	EquilSteps int
	// SampleSteps is the production length.
	SampleSteps int
	// SampleEvery accumulates the density profile every this many steps.
	// The paper's blocking discussion (§III-D) requires this to exceed the
	// autocorrelation time d_c (≈3–5 dt in the nano example).
	SampleEvery int
	// Bins is the number of z-bins for the density profile.
	Bins int
}

// Result carries the observables of one production run: the paper's three
// surrogate targets plus the full profile and diagnostics.
type Result struct {
	// ContactDensity is the ion density in the bins adjacent to the walls
	// (averaged over both walls).
	ContactDensity float64
	// MidDensity is the ion density at the slit mid-plane.
	MidDensity float64
	// PeakDensity is the maximum of the ionic density profile.
	PeakDensity float64
	// Profile is the full symmetrized ion density profile over z.
	Profile []float64
	// BinCenters are the z positions of the profile bins.
	BinCenters []float64
	// MeanTemperature is the run-averaged kinetic temperature (should be
	// ~1 under the thermostat).
	MeanTemperature float64
	// Samples is the number of profile accumulations.
	Samples int
}

// Run executes equilibration plus sampling and returns the measured
// observables. ctx aborts long runs between steps.
func (s *System) Run(ctx context.Context, rc RunConfig) (*Result, error) {
	if rc.SampleEvery <= 0 {
		rc.SampleEvery = 10
	}
	if rc.Bins <= 0 {
		rc.Bins = 40
	}
	for i := 0; i < rc.EquilSteps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("md: equilibration aborted: %w", err)
		}
		s.Step()
	}
	prof := NewProfile(s.P.H, rc.Bins)
	tempSum := 0.0
	tempN := 0
	for i := 0; i < rc.SampleSteps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("md: sampling aborted: %w", err)
		}
		s.Step()
		if i%rc.SampleEvery == 0 {
			prof.Accumulate(s)
			tempSum += s.KineticTemperature()
			tempN++
		}
	}
	if tempN == 0 {
		return nil, fmt.Errorf("md: no samples collected (SampleSteps=%d, SampleEvery=%d)", rc.SampleSteps, rc.SampleEvery)
	}
	res := prof.Result(s)
	res.MeanTemperature = tempSum / float64(tempN)
	return res, nil
}
