package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func randomMatrix(rng *xrand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("new matrix not zeroed")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatal("At/Set round trip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("unexpected element changed")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	NewMatrix(2, 2).At(2, 0)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatal("FromRows content wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row should be a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone not independent")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose content wrong")
			}
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := matMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(c, want, 1e-12) {
		t.Fatalf("matmul got %v", c.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := xrand.New(1)
	a := randomMatrix(rng, 7, 7)
	id := NewMatrix(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	if !Equal(matMul(a, id), a, 1e-12) || !Equal(matMul(id, a), a, 1e-12) {
		t.Fatal("identity multiply changed matrix")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched matmul did not panic")
		}
	}()
	matMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

// Property: parallel blocked matmul agrees with naive triple loop.
func TestMatMulMatchesNaiveQuick(t *testing.T) {
	rng := xrand.New(2)
	if err := quick.Check(func(mr, nr, pr uint8) bool {
		m := int(mr%40) + 1
		n := int(nr%40) + 1
		p := int(pr%40) + 1
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, p)
		got := matMul(a, b)
		want := NewMatrix(m, p)
		for i := 0; i < m; i++ {
			for j := 0; j < p; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += a.At(i, k) * b.At(k, j)
				}
				want.Set(i, j, s)
			}
		}
		return Equal(got, want, 1e-9)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)^T == B^T A^T.
func TestTransposeProductIdentityQuick(t *testing.T) {
	rng := xrand.New(3)
	if err := quick.Check(func(mr, nr, pr uint8) bool {
		m := int(mr%20) + 1
		n := int(nr%20) + 1
		p := int(pr%20) + 1
		a := randomMatrix(rng, m, n)
		b := randomMatrix(rng, n, p)
		left := transpose(matMul(a, b))
		right := matMul(transpose(b), transpose(a))
		return Equal(left, right, 1e-9)
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulLargeParallel holds a product larger than any workload runs to
// its row-range kernel over all rows.
func TestMatMulLargeParallel(t *testing.T) {
	rng := xrand.New(4)
	a := randomMatrix(rng, 97, 53)
	b := randomMatrix(rng, 53, 61)
	got := matMul(a, b)
	want := NewMatrix(97, 61)
	matMulBiasRange(want, a, b, nil, 0, 97)
	if !Equal(got, want, 1e-9) {
		t.Fatal("large matmul differs from its row-range kernel")
	}
}

// TestMatMulZeroAlloc: each product into a caller's destination allocates
// nothing at the shapes BenchmarkMatMulKernels times, from batch_sweep's
// 64x128x128 down to a serving tenant's one-row input layer, whatever the
// core count, on every tier.
func TestMatMulZeroAlloc(t *testing.T) {
	rng := xrand.New(5)
	for _, d := range [][3]int{{64, 128, 128}, {32, 128, 128}, {32, 8, 128}, {32, 128, 4}, {32, 2, 24}, {1, 2, 24}, {32, 3, 30}, {32, 24, 1}} {
		batch, in, out := d[0], d[1], d[2]
		x, w, delta := randomMatrix(rng, batch, in), randomMatrix(rng, in, out), randomMatrix(rng, batch, out)
		bias := make([]float64, out)
		y, gw, dx := NewMatrix(batch, out), NewMatrix(in, out), NewMatrix(batch, in)
		eachTier(t, func(tier string) {
			for name, run := range map[string]func(){
				"bias": func() { MatMulBiasInto(y, x, w, bias) },
				"atb":  func() { MatMulATBInto(gw, x, delta) },
				"abt":  func() { MatMulABTInto(dx, delta, w) },
			} {
				if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
					t.Errorf("%s %s/%dx%dx%d allocates %g times per call, want 0", tier, name, batch, in, out, allocs)
				}
			}
		})
	}
}

func TestHadamard(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	if got := Hadamard(nil, a, b); !Equal(got, FromRows([][]float64{{10, 40}, {90, 160}}), 0) {
		t.Fatal("Hadamard wrong")
	}
	Hadamard(a, a, b) // dst aliases a
	if !Equal(a, FromRows([][]float64{{10, 40}, {90, 160}}), 0) {
		t.Fatal("aliased Hadamard wrong")
	}
}

func TestDotAxpyNorms(t *testing.T) {
	x := []float64{1, 2, 2}
	y := []float64{3, 0, 4}
	if Dot(x, y) != 11 {
		t.Fatalf("Dot = %g", Dot(x, y))
	}
	if norm2(x) != 3 {
		t.Fatalf("norm2 = %g", norm2(x))
	}
	if normInf(y) != 4 {
		t.Fatalf("normInf = %g", normInf(y))
	}
	z := []float64{1, 1, 1}
	axpy4(2, x, z)
	if z[0] != 3 || z[1] != 5 || z[2] != 5 {
		t.Fatalf("axpy4 got %v", z)
	}
}

func TestHasNaN(t *testing.T) {
	m := NewMatrix(2, 2)
	if HasNaN(m) {
		t.Fatal("zero matrix flagged as NaN")
	}
	m.Set(1, 1, math.NaN())
	if !HasNaN(m) {
		t.Fatal("NaN not detected")
	}
	m.Set(1, 1, math.Inf(1))
	if !HasNaN(m) {
		t.Fatal("Inf not detected")
	}
}

func TestZeroFill(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	m.Fill(7)
	if m.At(0, 0) != 7 || m.At(0, 1) != 7 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(NewMatrix(1, 2), NewMatrix(2, 1), 1) {
		t.Fatal("different shapes reported equal")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := xrand.New(5)
	x := randomMatrix(rng, 64, 64)
	y := randomMatrix(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMul(x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := xrand.New(6)
	x := randomMatrix(rng, 256, 256)
	y := randomMatrix(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMul(x, y)
	}
}
