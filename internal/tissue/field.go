// Package tissue implements the virtual-tissue exemplar of §II-B: an
// agent-based cell population coupled to an explicit reaction–advection–
// diffusion solver, plus the ML short-circuit of the transport inner loop
// — "the elimination of short time scales, e.g., short-circuit the
// calculations of advection-diffusion" — reproduced as experiment E9. The
// learned macro-stepper advances the chemical field K micro-steps at a
// time on a 2× coarse grid, trading bounded field error for a large
// reduction in stencil work, exactly the "larger grain size to solve the
// diffusion equation" the paper's introduction proposes.
package tissue

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Field is a 2D scalar concentration field on a periodic uniform grid.
type Field struct {
	NX, NY int
	H      float64 // grid spacing
	U      []float64
}

// NewField allocates a zero field.
func NewField(nx, ny int, h float64) *Field {
	if nx < 4 || ny < 4 || h <= 0 {
		panic(fmt.Sprintf("tissue: invalid field %dx%d h=%g", nx, ny, h))
	}
	return &Field{NX: nx, NY: ny, H: h, U: make([]float64, nx*ny)}
}

// At returns u(i,j) with periodic wrapping.
func (f *Field) At(i, j int) float64 {
	return f.U[f.idx(i, j)]
}

// Set assigns u(i,j) with periodic wrapping.
func (f *Field) Set(i, j int, v float64) {
	f.U[f.idx(i, j)] = v
}

func (f *Field) idx(i, j int) int {
	i = ((i % f.NX) + f.NX) % f.NX
	j = ((j % f.NY) + f.NY) % f.NY
	return j*f.NX + i
}

// Clone deep-copies the field.
func (f *Field) Clone() *Field {
	c := NewField(f.NX, f.NY, f.H)
	copy(c.U, f.U)
	return c
}

// L2Diff returns the root-mean-square difference between two fields of
// identical shape.
func L2Diff(a, b *Field) float64 {
	if a.NX != b.NX || a.NY != b.NY {
		panic("tissue: L2Diff shape mismatch")
	}
	s := 0.0
	for i := range a.U {
		d := a.U[i] - b.U[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a.U)))
}

// PDEParams are the coefficients of du/dt = D∇²u − v·∇u − k·u + S.
type PDEParams struct {
	Diff   float64 // diffusion coefficient D
	VX, VY float64 // advection velocity
	Decay  float64 // linear decay k
	Dt     float64 // micro timestep
}

// StabilityOK reports whether the explicit FTCS + upwind scheme is stable
// on the given grid (diffusive CFL with an advective safety margin).
func (p PDEParams) StabilityOK(h float64) bool {
	if p.Dt <= 0 {
		return false
	}
	diffLimit := h * h / (4 * math.Max(p.Diff, 1e-12))
	advSpeed := math.Abs(p.VX) + math.Abs(p.VY)
	advLimit := math.Inf(1)
	if advSpeed > 0 {
		advLimit = h / advSpeed
	}
	return p.Dt <= 0.9*diffLimit && p.Dt <= 0.9*advLimit
}

// Solver advances a Field explicitly. Source is an optional per-node
// source term (same length as U), typically written by the cell agents.
type Solver struct {
	P       PDEParams
	Source  []float64
	Workers int
	scratch []float64
}

// NewSolver builds a solver; it panics if the scheme would be unstable,
// the failure-injection guard for misuse of the explicit stepper.
func NewSolver(p PDEParams, f *Field) *Solver {
	if !p.StabilityOK(f.H) {
		panic(fmt.Sprintf("tissue: unstable parameters %+v for h=%g", p, f.H))
	}
	return &Solver{P: p, scratch: make([]float64, len(f.U))}
}

// Step advances the field one micro-step with a 5-point FTCS Laplacian
// and first-order upwind advection, parallelized over row stripes.
func (s *Solver) Step(f *Field) {
	if len(s.scratch) != len(f.U) {
		s.scratch = make([]float64, len(f.U))
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > f.NY {
		workers = f.NY
	}
	stripe := (f.NY + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		jLo, jHi := w*stripe, (w+1)*stripe
		if jHi > f.NY {
			jHi = f.NY
		}
		if jLo >= jHi {
			break
		}
		wg.Add(1)
		go func(jLo, jHi int) {
			defer wg.Done()
			s.stepRows(f, jLo, jHi)
		}(jLo, jHi)
	}
	wg.Wait()
	copy(f.U, s.scratch)
}

func (s *Solver) stepRows(f *Field, jLo, jHi int) {
	p := s.P
	h := f.H
	nx, ny := f.NX, f.NY
	for j := jLo; j < jHi; j++ {
		jm := ((j - 1) + ny) % ny * nx
		jp := (j + 1) % ny * nx
		j0 := j * nx
		for i := 0; i < nx; i++ {
			im := ((i - 1) + nx) % nx
			ip := (i + 1) % nx
			u := f.U[j0+i]
			lap := (f.U[j0+im] + f.U[j0+ip] + f.U[jm+i] + f.U[jp+i] - 4*u) / (h * h)
			// Upwind advection.
			var dudx, dudy float64
			if p.VX >= 0 {
				dudx = (u - f.U[j0+im]) / h
			} else {
				dudx = (f.U[j0+ip] - u) / h
			}
			if p.VY >= 0 {
				dudy = (u - f.U[jm+i]) / h
			} else {
				dudy = (f.U[jp+i] - u) / h
			}
			src := 0.0
			if s.Source != nil {
				src = s.Source[j0+i]
			}
			s.scratch[j0+i] = u + p.Dt*(p.Diff*lap-p.VX*dudx-p.VY*dudy-p.Decay*u+src)
		}
	}
}

// Steps advances n micro-steps.
func (s *Solver) Steps(f *Field, n int) {
	for i := 0; i < n; i++ {
		s.Step(f)
	}
}

// Restrict returns the 2× coarsened field (2x2 block average); both
// dimensions must be even. This is the "larger grain size" operator.
func Restrict(f *Field) *Field {
	if f.NX%2 != 0 || f.NY%2 != 0 {
		panic("tissue: Restrict requires even dimensions")
	}
	c := NewField(f.NX/2, f.NY/2, f.H*2)
	for j := 0; j < c.NY; j++ {
		for i := 0; i < c.NX; i++ {
			sum := f.At(2*i, 2*j) + f.At(2*i+1, 2*j) + f.At(2*i, 2*j+1) + f.At(2*i+1, 2*j+1)
			c.Set(i, j, sum/4)
		}
	}
	return c
}

// GaussianBump initializes the field with a Gaussian blob, the standard
// test initial condition.
func (f *Field) GaussianBump(cx, cy, sigma, amplitude float64) {
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			dx := (float64(i) - cx) * f.H
			dy := (float64(j) - cy) * f.H
			f.Set(i, j, amplitude*math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma)))
		}
	}
}
