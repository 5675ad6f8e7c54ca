package tensor

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// naiveMatMul is the reference triple loop the in-place kernels are
// property-tested against.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// matMul is a*b into a fresh matrix: MatMulBiasInto with a zero bias.
func matMul(a, b *Matrix) *Matrix {
	return MatMulBiasInto(NewMatrix(a.Rows, b.Cols), a, b, make([]float64, b.Cols))
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// norm2 is the Euclidean norm of x.
func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// normInf is the largest absolute element of x.
func normInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

func randKernelMatrix(rng *xrand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Range(-2, 2)
	}
	return m
}

// randomShapes sweeps odd/even/tiny/large-ish shapes so the unrolled
// panel kernels exercise both their main loops and remainders.
var kernelShapes = []struct{ n, m, p int }{
	{1, 1, 1}, {1, 5, 3}, {2, 3, 4}, {3, 7, 5}, {4, 4, 4},
	{5, 9, 2}, {7, 8, 9}, {8, 16, 8}, {13, 11, 17}, {33, 34, 35},
	{64, 8, 64},
	// The surrogate step's narrow operands: 1- to 3-wide b, a or both.
	{32, 24, 1}, {32, 1, 24}, {32, 48, 3}, {7, 2, 24}, {32, 3, 2},
}

func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := xrand.New(1001)
	for _, s := range kernelShapes {
		a := randKernelMatrix(rng, s.n, s.m)
		b := randKernelMatrix(rng, s.m, s.p)
		want := naiveMatMul(a, b)
		dst := randKernelMatrix(rng, s.n, s.p) // stale contents must be overwritten
		got := MatMulBiasInto(dst, a, b, make([]float64, s.p))
		if got != dst {
			t.Fatal("MatMulBiasInto did not return dst")
		}
		if !Equal(got, want, 1e-10) {
			t.Fatalf("MatMulBiasInto %dx%d*%dx%d mismatch", s.n, s.m, s.m, s.p)
		}
	}
}

func TestMatMulATBIntoMatchesNaive(t *testing.T) {
	rng := xrand.New(1002)
	for _, s := range kernelShapes {
		a := randKernelMatrix(rng, s.n, s.m) // aᵀ is m x n
		b := randKernelMatrix(rng, s.n, s.p)
		want := naiveMatMul(transpose(a), b)
		dst := randKernelMatrix(rng, s.m, s.p)
		got := MatMulATBInto(dst, a, b)
		if !Equal(got, want, 1e-10) {
			t.Fatalf("MatMulATBInto %dx%dᵀ*%dx%d mismatch", s.n, s.m, s.n, s.p)
		}
	}
}

func TestMatMulABTIntoMatchesNaive(t *testing.T) {
	rng := xrand.New(1003)
	for _, s := range kernelShapes {
		a := randKernelMatrix(rng, s.n, s.m)
		b := randKernelMatrix(rng, s.p, s.m) // bᵀ is m x p
		want := naiveMatMul(a, transpose(b))
		dst := randKernelMatrix(rng, s.n, s.p)
		got := MatMulABTInto(dst, a, b)
		if !Equal(got, want, 1e-10) {
			t.Fatalf("MatMulABTInto %dx%d*%dx%dᵀ mismatch", s.n, s.m, s.p, s.m)
		}
	}
}

func TestMatMulIntoShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { MatMulBiasInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2), make([]float64, 2)) },
		func() { MatMulBiasInto(NewMatrix(3, 2), NewMatrix(2, 3), NewMatrix(3, 2), make([]float64, 2)) },
		func() { MatMulATBInto(NewMatrix(3, 2), NewMatrix(2, 3), NewMatrix(4, 2)) },
		func() { MatMulABTInto(NewMatrix(2, 4), NewMatrix(2, 3), NewMatrix(4, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("shape mismatch did not panic")
				}
			}()
			f()
		}()
	}
}

func TestReshapeReusesBacking(t *testing.T) {
	m := NewMatrix(8, 4)
	data := &m.Data[0]
	m.Reshape(4, 4)
	if m.Rows != 4 || m.Cols != 4 || len(m.Data) != 16 {
		t.Fatalf("reshape to 4x4 got %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != data {
		t.Fatal("shrinking reshape reallocated")
	}
	m.Reshape(10, 5) // growth must reallocate
	if m.Rows != 10 || m.Cols != 5 || len(m.Data) != 50 {
		t.Fatal("growing reshape wrong shape")
	}
}

func TestSliceRowsIsView(t *testing.T) {
	m := NewMatrix(4, 3)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	v := m.SliceRows(1, 3)
	if v.Rows != 2 || v.Cols != 3 {
		t.Fatalf("view shape %dx%d", v.Rows, v.Cols)
	}
	v.Set(0, 0, -1)
	if m.At(1, 0) != -1 {
		t.Fatal("view mutation not visible in parent")
	}
}

func TestMatMulIntoZeroesStaleDst(t *testing.T) {
	// A dst full of garbage (including NaN) must be fully overwritten.
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{1, 0}, {0, 1}})
	dst := NewMatrix(2, 2)
	dst.Fill(math.NaN())
	MatMulBiasInto(dst, a, b, make([]float64, 2))
	if HasNaN(dst) {
		t.Fatal("stale dst contents leaked through MatMulBiasInto")
	}
}
