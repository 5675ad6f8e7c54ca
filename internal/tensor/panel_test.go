package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestMatMulBiasIntoMatchesComposition checks the fused bias-seeded
// matmul against MatMul followed by an explicit bias broadcast, across
// shapes that exercise the 4-wide panel kernel remainders.
func TestMatMulBiasIntoMatchesComposition(t *testing.T) {
	rng := xrand.New(41)
	for _, shape := range [][3]int{{1, 1, 1}, {3, 5, 2}, {8, 4, 7}, {13, 9, 6}, {32, 24, 1}, {5, 49, 3},
		{32, 2, 24}, {9, 1, 8}, {7, 3, 13}, {6, 2, 4}} { // the last four: a too short for a panel, one pass a row
		n, k, p := shape[0], shape[1], shape[2]
		a := NewMatrix(n, k)
		b := NewMatrix(k, p)
		bias := make([]float64, p)
		for i := range a.Data {
			a.Data[i] = rng.Range(-1, 1)
		}
		if n > 2 { // rows holding a zero, whose axpy the row kernel skips
			a.Data[k], a.Data[2*k+k-1] = 0, 0
		}
		for i := range b.Data {
			b.Data[i] = rng.Range(-1, 1)
		}
		for i := range bias {
			bias[i] = rng.Range(-1, 1)
		}
		if n > 2 {
			bias[p-1] = math.Copysign(0, -1) // -0 + 0·b would be +0, the skipped axpy leaves -0
		}
		want := MatMul(a, b)
		for i := 0; i < n; i++ {
			row := want.Row(i)
			for j := range row {
				row[j] += bias[j]
			}
		}
		got := MatMulBiasInto(NewMatrix(n, p), a, b, bias)
		if !Equal(got, want, 1e-13) {
			t.Fatalf("MatMulBiasInto (%dx%d)*(%dx%d) differs from matmul+bias", n, k, k, p)
		}
		// Whatever loop order the width selects, a row rounds exactly as
		// the single-row panel kernel does, so batch and row inference
		// agree to the bit.
		for i := 0; i < n; i++ {
			row := append([]float64(nil), bias...)
			AxpyPanels(row, a.Row(i), b.Data)
			for j, v := range row {
				if got.At(i, j) != v {
					t.Fatalf("MatMulBiasInto (%dx%d)*(%dx%d) row %d rounds differently from AxpyPanels", n, k, k, p, i)
				}
			}
		}
	}
}

// TestScaleColumnsBlocks checks per-block column scaling, including the
// in-place aliasing contract and agreement with element-by-element scaling.
func TestScaleColumnsBlocks(t *testing.T) {
	rng := xrand.New(43)
	const block, blocks, cols = 3, 4, 5
	x := NewMatrix(block*blocks, cols)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	scales := make([]float64, blocks*cols)
	for i := range scales {
		scales[i] = rng.Range(0, 2)
	}
	want := NewMatrix(x.Rows, cols)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < cols; j++ {
			want.Set(i, j, x.At(i, j)*scales[(i/block)*cols+j])
		}
	}
	got := ScaleColumnsBlocks(NewMatrix(x.Rows, cols), x, scales, block)
	if !Equal(got, want, 0) {
		t.Fatal("ScaleColumnsBlocks differs from element-by-element scaling")
	}
	inPlace := x.Clone()
	ScaleColumnsBlocks(inPlace, inPlace, scales, block)
	if !Equal(inPlace, want, 0) {
		t.Fatal("in-place ScaleColumnsBlocks differs from out-of-place")
	}
}

// TestRepeatRowsInto checks vertical tiling and dst reuse.
func TestRepeatRowsInto(t *testing.T) {
	src := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := RepeatRowsInto(nil, src, 3)
	if dst.Rows != 6 || dst.Cols != 2 {
		t.Fatalf("tiled shape %dx%d, want 6x2", dst.Rows, dst.Cols)
	}
	for t2 := 0; t2 < 3; t2++ {
		for i := 0; i < src.Rows; i++ {
			for j := 0; j < src.Cols; j++ {
				if dst.At(t2*src.Rows+i, j) != src.At(i, j) {
					t.Fatalf("tile %d row %d col %d mismatch", t2, i, j)
				}
			}
		}
	}
	// Reuse must reshape (and not allocate once capacity suffices).
	reused := RepeatRowsInto(dst, src, 2)
	if reused.Rows != 4 || reused != dst {
		t.Fatal("RepeatRowsInto did not reuse dst")
	}
}

// AxpyPanels accumulates dst += Σᵢ x[i]·a[i·w:(i+1)·w] where w = len(dst)
// — the single-row matmul kernel y += xᵀA for a row-major A (len(a) ==
// len(x)·len(dst)), four source rows fused per step, the len(x)%4 last
// ones skipped when zero. It is one row of panelRows seeded with dst, so
// it takes the register tile where MatMulBiasInto does: each row of
// MatMulBiasInto rounds exactly as this does over a bias-seeded row, and
// kern_test.go holds it to the Go loops.
func AxpyPanels(dst, x, a []float64) {
	w := len(dst)
	if len(a) != len(x)*w {
		panic(fmt.Sprintf("tensor: axpy-panels %d x %d panel block of len %d", len(x), w, len(a)))
	}
	panelRows(dst, x, len(x), 1, a, append([]float64(nil), dst...), 1, len(x), w)
}
