package md

import (
	"math"
	"runtime"
	"sync"
)

// PairKernel computes the scalar radial force magnitude divided by r
// (f(r)/r, so the Cartesian force is the return value times the separation
// vector) for a solvent-solvent pair at squared distance r2. Returning 0
// means no interaction. The exact kernel below is deliberately expensive —
// it stands in for the polarizable many-term force fields the paper notes
// cost 3-10x (§II-C2) — which is what makes the learned surrogate kernel
// of experiment E8 profitable.
type PairKernel interface {
	ForceOverR(r2 float64) float64
	Name() string
}

// ExactSolventKernel is the reference solvent-solvent interaction: a WCA
// core plus a short-range oscillatory tail evaluated with transcendental
// functions (the stand-in for expensive polarization terms).
type ExactSolventKernel struct{}

// Name implements PairKernel.
func (ExactSolventKernel) Name() string { return "exact" }

// ForceOverR implements PairKernel.
func (ExactSolventKernel) ForceOverR(r2 float64) float64 {
	const sigma2 = 1.0
	const cut2 = 6.25 // 2.5^2
	if r2 >= cut2 || r2 == 0 {
		return 0
	}
	// WCA-like repulsive core.
	inv2 := sigma2 / r2
	inv6 := inv2 * inv2 * inv2
	f := 24 * (2*inv6*inv6 - inv6) / r2
	if f < 0 {
		f = 0
	}
	// Expensive oscillatory "polarization" tail: several transcendental
	// evaluations per pair, as in multi-term classical polarizable FFs.
	r := math.Sqrt(r2)
	tail := 0.0
	for k := 1; k <= 4; k++ {
		fk := float64(k)
		tail += math.Exp(-fk*r/2) * math.Cos(fk*math.Pi*r) / fk
	}
	return f + 0.5*tail/r
}

// TabulatedKernel is a learned/tabulated radial kernel: the surrogate that
// replaces the exact solvent kernel in E8. Lookup is a linear
// interpolation into a precomputed table — orders of magnitude cheaper
// than the transcendental tail.
type TabulatedKernel struct {
	RMin, RMax float64
	Table      []float64 // f(r)/r at uniform r^2 spacing
	dr2        float64
}

// Name implements PairKernel.
func (t *TabulatedKernel) Name() string { return "surrogate" }

// NewTabulatedKernel samples src on a uniform r^2 grid of the given size.
// In the full experiment the table entries come from an NN fit of sampled
// (r, force) pairs; tabulation is the deployment form of that surrogate.
func NewTabulatedKernel(src PairKernel, rMin, rMax float64, size int) *TabulatedKernel {
	if size < 2 {
		panic("md: kernel table needs at least 2 entries")
	}
	t := &TabulatedKernel{RMin: rMin, RMax: rMax, Table: make([]float64, size)}
	lo, hi := rMin*rMin, rMax*rMax
	t.dr2 = (hi - lo) / float64(size-1)
	for i := range t.Table {
		r2 := lo + float64(i)*t.dr2
		t.Table[i] = src.ForceOverR(r2)
	}
	return t
}

// ForceOverR implements PairKernel.
func (t *TabulatedKernel) ForceOverR(r2 float64) float64 {
	lo := t.RMin * t.RMin
	hi := t.RMax * t.RMax
	if r2 >= hi || r2 == 0 {
		return 0
	}
	if r2 < lo {
		r2 = lo
	}
	pos := (r2 - lo) / t.dr2
	i := int(pos)
	if i >= len(t.Table)-1 {
		return t.Table[len(t.Table)-1]
	}
	frac := pos - float64(i)
	return t.Table[i]*(1-frac) + t.Table[i+1]*frac
}

// cellList is a 3D uniform-grid neighbor structure, periodic in x,y.
type cellList struct {
	nx, ny, nz int
	cx, cy, cz float64
	L, H       float64
	heads      []int
	next       []int
}

func newCellList(L, H, cutoff float64) *cellList {
	nx := int(L / cutoff)
	if nx < 1 {
		nx = 1
	}
	nz := int(H / cutoff)
	if nz < 1 {
		nz = 1
	}
	return &cellList{
		nx: nx, ny: nx, nz: nz,
		cx: L / float64(nx), cy: L / float64(nx), cz: H / float64(nz),
		L: L, H: H,
	}
}

// build assigns particles to cells.
func (c *cellList) build(pos []float64, n int) {
	total := c.nx * c.ny * c.nz
	if len(c.heads) != total {
		c.heads = make([]int, total)
	}
	if len(c.next) != n {
		c.next = make([]int, n)
	}
	for i := range c.heads {
		c.heads[i] = -1
	}
	for i := 0; i < n; i++ {
		idx := c.cellIndex(pos[3*i], pos[3*i+1], pos[3*i+2])
		c.next[i] = c.heads[idx]
		c.heads[idx] = i
	}
}

func (c *cellList) cellIndex(x, y, z float64) int {
	ix := int(wrap(x, c.L) / c.cx)
	iy := int(wrap(y, c.L) / c.cy)
	iz := int((z + c.H/2) / c.cz)
	if ix >= c.nx {
		ix = c.nx - 1
	}
	if iy >= c.ny {
		iy = c.ny - 1
	}
	if iz < 0 {
		iz = 0
	}
	if iz >= c.nz {
		iz = c.nz - 1
	}
	return (iz*c.ny+iy)*c.nx + ix
}

// neighborsOf calls visit for every particle in the 27 cells around the
// given position (including the particle's own cell).
func (c *cellList) neighborsOf(x, y, z float64, visit func(j int)) {
	ix := int(wrap(x, c.L) / c.cx)
	iy := int(wrap(y, c.L) / c.cy)
	iz := int((z + c.H/2) / c.cz)
	if ix >= c.nx {
		ix = c.nx - 1
	}
	if iy >= c.ny {
		iy = c.ny - 1
	}
	if iz < 0 {
		iz = 0
	}
	if iz >= c.nz {
		iz = c.nz - 1
	}
	// With fewer than 3 cells along a periodic axis the ±1 neighbors wrap
	// onto the same cell; deduplicate the wrapped indices so pairs are
	// visited exactly once.
	xs := periodicNeighbors(ix, c.nx)
	ys := periodicNeighbors(iy, c.ny)
	for dz := -1; dz <= 1; dz++ {
		jz := iz + dz
		if jz < 0 || jz >= c.nz {
			continue
		}
		for _, jy := range ys {
			for _, jx := range xs {
				for j := c.heads[(jz*c.ny+jy)*c.nx+jx]; j >= 0; j = c.next[j] {
					visit(j)
				}
			}
		}
	}
}

// periodicNeighbors returns the distinct wrapped cell indices {i-1, i, i+1}
// along a periodic axis of n cells.
func periodicNeighbors(i, n int) []int {
	if n >= 3 {
		return []int{(i - 1 + n) % n, i, (i + 1) % n}
	}
	if n == 2 {
		return []int{i, 1 - i}
	}
	return []int{0}
}

// ComputeForces fills s.Force with the total force on every particle:
// WCA + screened Coulomb for ion pairs, the active solvent kernel for
// solvent-solvent pairs, WCA for ion-solvent pairs, and the wall
// potential. The loop is parallelized over particles; each worker computes
// the full force on its own particles (pairs are evaluated twice, which
// doubles FLOPs but needs no synchronization — the standard shared-memory
// trade the paper's heterogeneity discussion motivates measuring).
func (s *System) ComputeForces() {
	s.cells.build(s.Pos, s.N)
	for i := range s.Force {
		s.Force[i] = 0
	}
	workers := s.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > s.N {
		workers = s.N
	}
	if workers <= 1 {
		s.forceRange(0, s.N)
		return
	}
	var wg sync.WaitGroup
	chunk := (s.N + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > s.N {
			hi = s.N
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.forceRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (s *System) forceRange(lo, hi int) {
	// Pair forces are capped at ±fCap (in f/r form): the standard guard
	// against integration catastrophe in stiff strongly-coupled systems
	// (LAMMPS-style soft capping). Overheating from an over-large dt then
	// shows up as a kinetic-temperature excursion — which is exactly the
	// observable the MLautotuning experiment (E3) learns — instead of a
	// numeric blowup.
	const fCap = 1e4
	cut2 := s.Cfg.Cutoff * s.Cfg.Cutoff
	d2 := s.P.D * s.P.D
	lB := s.Cfg.Bjerrum
	kappa := s.Kappa
	for i := lo; i < hi; i++ {
		xi, yi, zi := s.Pos[3*i], s.Pos[3*i+1], s.Pos[3*i+2]
		qi := s.Charge[i]
		ki := s.Kind[i]
		var fx, fy, fz float64
		s.cells.neighborsOf(xi, yi, zi, func(j int) {
			if j == i {
				return
			}
			dx := xi - s.Pos[3*j]
			dy := yi - s.Pos[3*j+1]
			dz := zi - s.Pos[3*j+2]
			dx, dy = s.minimumImage(dx, dy)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 >= cut2 || r2 == 0 {
				return
			}
			var fOverR float64
			if ki == Solvent && s.Kind[j] == Solvent {
				fOverR = s.kernel.ForceOverR(r2)
			} else {
				// WCA with ion diameter D: purely repulsive core.
				wcaCut := 1.2599210498948732 * d2 // 2^(1/3) * D^2
				if r2 < wcaCut {
					inv2 := d2 / r2
					inv6 := inv2 * inv2 * inv2
					fOverR += 24 * (2*inv6*inv6 - inv6) / r2
				}
				// Screened Coulomb for charged pairs.
				qj := s.Charge[j]
				if qi != 0 && qj != 0 {
					r := math.Sqrt(r2)
					// U = lB*qi*qj*exp(-kappa r)/r
					// f/r = lB*qi*qj*exp(-kappa r)*(1+kappa r)/r^3
					fOverR += lB * qi * qj * math.Exp(-kappa*r) * (1 + kappa*r) / (r2 * r)
				}
			}
			if fOverR > fCap {
				fOverR = fCap
			} else if fOverR < -fCap {
				fOverR = -fCap
			}
			fx += fOverR * dx
			fy += fOverR * dy
			fz += fOverR * dz
		})
		// Walls at z = ±H/2: purely repulsive 12-6 on the wall distance.
		fz += s.wallForce(zi)
		s.Force[3*i] = fx
		s.Force[3*i+1] = fy
		s.Force[3*i+2] = fz
	}
}

// wallForce returns the z-force from both walls on a particle at height z.
// Each wall exerts a WCA-style repulsion on the normal distance, with the
// contact offset of half an ion diameter.
func (s *System) wallForce(z float64) float64 {
	sigma := s.P.D / 2
	wcaCut := sigma * math.Pow(2, 1.0/6)
	f := 0.0
	// Lower wall at -H/2.
	if dzLo := z + s.P.H/2; dzLo < wcaCut {
		f += wallRepulsion(dzLo, sigma)
	}
	// Upper wall at +H/2.
	if dzHi := s.P.H/2 - z; dzHi < wcaCut {
		f -= wallRepulsion(dzHi, sigma)
	}
	return f
}

// wallRepulsion is the magnitude of the repulsive 12-6 force at normal
// distance dz (pushes away from the wall). Clamped at small distances for
// numerical safety.
func wallRepulsion(dz, sigma float64) float64 {
	const minDz = 1e-3
	if dz < minDz {
		dz = minDz
	}
	inv := sigma / dz
	inv2 := inv * inv
	inv6 := inv2 * inv2 * inv2
	f := 24 * (2*inv6*inv6 - inv6) / dz
	if f < 0 {
		return 0
	}
	const maxF = 1e4
	if f > maxF {
		return maxF
	}
	return f
}
