package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// The kernels are checked through the functions that dispatch to them, so
// the same file passes with the assembly (amd64) and without it (-tags
// purego, other targets), where both sides are the Go loops.

// TestKernelPath reports which inner kernels this build and CPU selected;
// scripts/bench.sh records the line as _meta.simd, and CI requires
// simd=avx2 on its amd64 runner, where the tests below would otherwise
// hold the Go loops to themselves.
func TestKernelPath(t *testing.T) {
	path := "none"
	if useAVX2 {
		path = "avx2"
	}
	t.Logf("simd=%s", path)
}

// kernLens is every length 0..67 (every tail, with and without the
// unrolled loop and on each side of a 32-column tile) plus the wide
// shapes' 128 and an odd 131.
func kernLens() []int {
	lens := make([]int, 0, 70)
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	return append(lens, 128, 131)
}

var specials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1030, math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// fillKern fills s with random finite data; every third call position it
// plants a special value so signed zeros, denormals, infinities and NaNs
// meet each other and ordinary numbers in every lane.
func fillKern(rng *xrand.Rand, s []float64, special bool) {
	for i := range s {
		s[i] = rng.Range(-2, 2) * math.Ldexp(1, rng.Intn(40)-20)
		if special && rng.Intn(3) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// sameBits is bit equality, with any NaN equal to any NaN: which operand's
// payload an instruction propagates is not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func checkSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %x (%g), reference %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkAxpyPanels runs AxpyPanels (four rows of a per assembly call, the
// len(x)%4 last rows through axpy4) and the reference loops on copies of y.
func checkAxpyPanels(t *testing.T, x, a, y []float64, off int) {
	t.Helper()
	w := len(y)
	got := append(make([]float64, off), y...)[off:]
	want := append([]float64(nil), y...)
	AxpyPanels(got, x, a)
	i := 0
	for ; i+4 <= len(x); i += 4 {
		axpyPanel4(x[i], x[i+1], x[i+2], x[i+3], a[i*w:(i+1)*w], a[(i+1)*w:(i+2)*w], a[(i+2)*w:(i+3)*w], a[(i+3)*w:(i+4)*w], want)
	}
	for ; i < len(x); i++ {
		if x[i] != 0 {
			naiveAxpy(x[i], a[i*w:(i+1)*w], want)
		}
	}
	checkSame(t, "AxpyPanels", got, want)
}

// naiveAxpy is axpy4 without the unrolling: element-wise, so there is no
// order to get wrong.
func naiveAxpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

func TestAxpyPanel4MatchesReference(t *testing.T) {
	rng := xrand.New(0x5eed01)
	for _, n := range kernLens() {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				x := make([]float64, 9) // two panels of four rows and a single one
				a := make([]float64, off+len(x)*n)[off:]
				y := make([]float64, n)
				fillKern(rng, x, special)
				fillKern(rng, a, special)
				fillKern(rng, y, special)
				checkAxpyPanels(t, x, a, y, off)
			}
		}
	}
}

func checkAxpy4(t *testing.T, alpha float64, x, y []float64, off int) {
	t.Helper()
	got := append(make([]float64, off), y...)[off:]
	want := append([]float64(nil), y...)
	axpy4(alpha, x, got)
	naiveAxpy(alpha, x, want)
	checkSame(t, "axpy4", got, want)
}

func TestAxpy4MatchesReference(t *testing.T) {
	rng := xrand.New(0x5eed02)
	for _, n := range kernLens() {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				alpha := []float64{0}
				fillKern(rng, alpha, special)
				x := make([]float64, off+n)[off:]
				y := make([]float64, n)
				fillKern(rng, x, special)
				fillKern(rng, y, special)
				checkAxpy4(t, alpha[0], x, y, off)
			}
		}
	}
}

// checkDotRows runs the rows rows of a (len(a)/rows wide) against the m
// rows of b through matMulABTRange, as two row ranges (2x4 tiles in the
// assembly, an odd row of a range alone, the m%4 last rows of b in dot4)
// and compares every element with dot4 itself.
func checkDotRows(t *testing.T, a, b []float64, rows, m int) {
	t.Helper()
	k := len(a) / rows
	am := &Matrix{Rows: rows, Cols: k, Data: a[:rows*k]}
	bm := &Matrix{Rows: m, Cols: k, Data: b[:m*k]}
	got := NewMatrix(rows, m)
	splitRange(rows, func(lo, hi int) { matMulABTRange(got, am, bm, lo, hi) })
	want := make([]float64, rows*m)
	for i := 0; i < rows; i++ {
		for j := 0; j < m; j++ {
			want[i*m+j] = dot4(am.Row(i), bm.Row(j))
		}
	}
	checkSame(t, fmt.Sprintf("dot rows %dx%dx%d", rows, k, m), got.Data, want)
}

// tileWidths are the output widths the register tiles are held at: one
// 4-vector, the 32-column block and each side of it, a tail of 3, and two
// and a half blocks.
var tileWidths = []int{4, 8, 28, 31, 32, 33, 36, 64, 68}

func TestDotRowsMatchReference(t *testing.T) {
	rng := xrand.New(0x5eed03)
	// One a row against seven b rows at every k; then 1 to 9 a rows, odd
	// counts leaving a tile's tail row, at the tile widths, over ks with
	// and without a scalar tail.
	type shape struct {
		rows, m int
		ks      []int
	}
	shapes := []shape{{1, 7, kernLens()}}
	for rows := 1; rows <= 9; rows++ {
		for _, m := range tileWidths {
			shapes = append(shapes, shape{rows, m, []int{4, 5, 7, 8, 9, 13, 24, 31, 64, 128, 131}})
		}
	}
	for _, sh := range shapes {
		for _, k := range sh.ks {
			if k < narrow {
				continue // matMulABTRange takes no dot there
			}
			for off := 0; off < 4; off++ {
				for _, special := range []bool{false, true} {
					a := make([]float64, off+sh.rows*k)[off:]
					b := make([]float64, off+sh.m*k)[off:]
					fillKern(rng, a, special)
					fillKern(rng, b, special)
					checkDotRows(t, a, b, sh.rows, sh.m)
				}
			}
		}
	}
}

// checkProducts runs the three products a training step is made of —
// out = a·b + bias (a nil bias is zero), gw = aᵀ·delta and dx = delta·bᵀ —
// through their row-range functions as two ranges, and holds each to the
// Go loops of the path its shape takes: for out, the bias-seeded panel
// loop (four rows of b fused a step, the tail's zero multipliers skipped;
// a one- to three-column a is all tail) or for a narrow b narrowRef; for
// gw the same panel loop over a's columns, or for a narrow delta the
// plain sample-outermost sum; for dx dot4, or for delta one to three wide
// the strided sweep.
func checkProducts(t *testing.T, what string, a, b, delta *Matrix, bias []float64) {
	t.Helper()
	rows, n, p := a.Rows, a.Cols, b.Cols
	// panel is the panel loop over the n terms x(k)·brow(k), k < n, into y.
	panel := func(y []float64, n int, x func(k int) float64, brow func(k int) []float64) {
		k := 0
		for ; k+4 <= n; k += 4 {
			axpyPanel4(x(k), x(k+1), x(k+2), x(k+3), brow(k), brow(k+1), brow(k+2), brow(k+3), y)
		}
		for ; k < n; k++ {
			if v := x(k); v != 0 {
				naiveAxpy(v, brow(k), y)
			}
		}
	}

	got, want := NewMatrix(rows, p), NewMatrix(rows, p)
	splitRange(rows, func(lo, hi int) { matMulBiasRange(got, a, b, bias, lo, hi) })
	if p < narrow {
		narrowRef(want, a, b, bias)
	} else {
		for i := 0; i < rows; i++ {
			if bias != nil {
				copy(want.Row(i), bias)
			}
			panel(want.Row(i), n, func(k int) float64 { return a.At(i, k) }, b.Row)
		}
	}
	checkSame(t, what+" a·b+bias", got.Data, want.Data)

	got, want = NewMatrix(n, p), NewMatrix(n, p)
	splitRange(n, func(lo, hi int) { matMulATBRange(got, a, delta, lo, hi) })
	for j := 0; j < n; j++ {
		if p < narrow {
			for i := 0; i < rows; i++ {
				for c := 0; c < p; c++ {
					want.Data[j*p+c] += a.At(i, j) * delta.At(i, c)
				}
			}
			continue
		}
		panel(want.Row(j), rows, func(i int) float64 { return a.At(i, j) }, delta.Row)
	}
	checkSame(t, what+" aᵀ·delta", got.Data, want.Data)

	got, want = NewMatrix(rows, n), NewMatrix(rows, n)
	splitRange(rows, func(lo, hi int) { matMulABTRange(got, delta, b, lo, hi) })
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			d, w := delta.Row(i), b.Row(j)
			if p == 0 || p >= narrow {
				want.Set(i, j, dot4(d, w))
				continue
			}
			s := d[0] * w[0]
			for c := 1; c < p; c++ {
				s += d[c] * w[c]
			}
			want.Set(i, j, s)
		}
	}
	checkSame(t, what+" delta·bᵀ", got.Data, want.Data)
}

// The three products against their Go loops: the wide shapes, then 1 to 9
// rows (odd counts leave the 2-row dot tile a tail row; counts off 4 give
// aᵀ·delta a reduction tail) at the tile widths, over reductions with and
// without a tail, zeros planted in each tail and on a 4-block, specials in
// every lane on every other shape, and every third shape without a bias.
func TestMatMulKernelsMatchReference(t *testing.T) {
	rng := xrand.New(0x5eed04)
	shapes := [][3]int{{5, 128, 128}, {3, 131, 67}, {4, 7, 24}, {2, 24, 9}, {32, 128, 4}, {32, 24, 1}, {32, 2, 24}}
	ns := []int{5, 6, 7, 9, 13, 33, 4, 8, 131, 2}
	for rows := 1; rows <= 9; rows++ {
		for i, p := range tileWidths {
			shapes = append(shapes, [3]int{rows, ns[(rows+i)%len(ns)], p})
		}
		for _, n := range tileWidths { // aᵀ·delta's one-column kernel is n wide
			shapes = append(shapes, [3]int{rows, n, 1 + rows%3})
		}
	}
	for idx, d := range shapes {
		rows, n, p := d[0], d[1], d[2]
		special := idx%2 == 1
		a, b, delta := NewMatrix(rows, n), NewMatrix(n, p), NewMatrix(rows, p)
		fillKern(rng, a.Data, special)
		fillKern(rng, b.Data, special)
		fillKern(rng, delta.Data, special)
		var bias []float64
		if idx%3 != 2 {
			bias = make([]float64, p)
			fillKern(rng, bias, special)
		}
		for i := 0; i < rows; i++ {
			if n%4 != 0 { // the zero-skip of the k tail
				a.Set(i, n-1-i%(n%4), [2]float64{0, math.Copysign(0, -1)}[i%2])
			}
			if n >= 4 && i%3 == 0 { // a zero a 4-block adds as it is
				a.Set(i, 1, 0)
			}
		}
		if rows%4 != 0 { // the zero-skip of aᵀ·delta's sample tail
			for j := 0; j < n; j += 2 {
				a.Set(rows-1, j, 0)
			}
		}
		checkProducts(t, fmt.Sprintf("%dx%dx%d", rows, n, p), a, b, delta, bias)
	}
}

// thinWidths are the widths the thin-shape kernels are held at: every
// 4-vector tail up to 13, a serving tenant's hidden 24 and the wide net's
// 128. Each is run at 1 to 33 rows.
func thinWidths() []int {
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 24, 128}
}

// splitRange runs a row-range kernel over [0, rows) as two ranges, so a
// range that starts past row 0 is held too.
func splitRange(rows int, f func(lo, hi int)) {
	f(0, rows/3)
	f(rows/3, rows)
}

// A one- to three-input layer (an a of one to three columns) on the
// register tile, all reduction tail, against what it stands for: the
// bias-seeded axpy loop that skips a zero multiplier, with zero and
// special values planted in a, b and the bias. Narrower b go to the
// narrow path, which TestNarrowRangeMatchesReference holds.
func TestShortRangeMatchesReference(t *testing.T) {
	rng := xrand.New(0x5eed05)
	for n := 1; n <= 3; n++ {
		for _, p := range thinWidths() {
			if p < narrow {
				continue
			}
			for rows := 1; rows <= 33; rows++ {
				special := rows%2 == 0
				a, b, bias := NewMatrix(rows, n), NewMatrix(n, p), make([]float64, p)
				fillKern(rng, a.Data, special)
				fillKern(rng, b.Data, special)
				fillKern(rng, bias, special)
				a.Data[rng.Intn(len(a.Data))] = 0
				a.Data[rng.Intn(len(a.Data))] = math.Copysign(0, -1)
				got, want := NewMatrix(rows, p), NewMatrix(rows, p)
				splitRange(rows, func(lo, hi int) { matMulBiasRange(got, a, b, bias, lo, hi) })
				for i := 0; i < rows; i++ {
					y := want.Row(i)
					copy(y, bias)
					for k, v := range a.Row(i) {
						if v != 0 {
							naiveAxpy(v, b.Row(k), y)
						}
					}
				}
				checkSame(t, fmt.Sprintf("matMulBiasRange %dx%dx%d", rows, n, p), got.Data, want.Data)
			}
		}
	}
}

// narrowRef is matMulNarrowRange's scalar loop alone.
func narrowRef(out, a, b *Matrix, bias []float64) {
	n, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		aRow := a.Row(i)
		for j := 0; j < p; j++ {
			s := 0.0
			if bias != nil {
				s = bias[j]
			}
			k := 0
			for ; k+4 <= n; k += 4 {
				s += aRow[k]*b.At(k, j) + aRow[k+1]*b.At(k+1, j) + aRow[k+2]*b.At(k+2, j) + aRow[k+3]*b.At(k+3, j)
			}
			for ; k < n; k++ {
				s += aRow[k] * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
}

// The narrow path (one to three output columns), with and without a bias:
// whole groups of four rows in the assembly, the rest and every k tail in
// the loop.
func TestNarrowRangeMatchesReference(t *testing.T) {
	rng := xrand.New(0x5eed06)
	for _, n := range thinWidths() {
		for p := 1; p < narrow; p++ {
			for rows := 1; rows <= 33; rows++ {
				special := rows%2 == 1
				a, b := NewMatrix(rows, n), NewMatrix(n, p)
				fillKern(rng, a.Data, special)
				fillKern(rng, b.Data, special)
				var bias []float64
				if rows%3 != 0 {
					bias = make([]float64, p)
					fillKern(rng, bias, special)
				}
				got, want := NewMatrix(rows, p), NewMatrix(rows, p)
				splitRange(rows, func(lo, hi int) { matMulNarrowRange(got, a, b, bias, lo, hi) })
				narrowRef(want, a, b, bias)
				checkSame(t, fmt.Sprintf("matMulNarrowRange %dx%dx%d", rows, n, p), got.Data, want.Data)
			}
		}
	}
}

// The k = 1 scaled copy of MatMulABTInto, delta·Wᵀ for a one-output layer.
func TestOuterMatchesReference(t *testing.T) {
	rng := xrand.New(0x5eed07)
	for _, m := range thinWidths() {
		for rows := 1; rows <= 33; rows++ {
			a, b := NewMatrix(rows, 1), NewMatrix(m, 1)
			fillKern(rng, a.Data, rows%2 == 0)
			fillKern(rng, b.Data, rows%2 == 0)
			got, want := NewMatrix(rows, m), NewMatrix(rows, m)
			splitRange(rows, func(lo, hi int) { matMulABTRange(got, a, b, lo, hi) })
			for i := 0; i < rows; i++ {
				for j := 0; j < m; j++ {
					want.Set(i, j, a.Data[i]*b.Data[j])
				}
			}
			checkSame(t, fmt.Sprintf("matMulABTRange %dx1x%d", rows, m), got.Data, want.Data)
		}
	}
}

// sweepCase packs w, moves the words and the scratch to the given 8-byte
// offsets (the kernel's loads are unaligned) and checks the sweep against
// the exact integer dot products.
func sweepCase(t *testing.T, w, x []int8, in, out, off int) {
	t.Helper()
	p := PackQuantPanel(w, in, out)
	p.Words = append(make([]uint64, off), p.Words...)[off:]
	ux := make([]uint64, off+in)[off:]
	got, want := make([]int32, out), make([]int32, out)
	p.Sweep(got, x, ux)
	refQuantDot(want, x, w, in, out)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("sweep %dx%d off %d col %d: got %d want %d", in, out, off, j, got[j], want[j])
		}
	}
}

// TestQuantSweepFullGrid drives every grid value of x against every grid
// value of w, including the extremes that fill a 16-bit lane
// (4 * 127 * 127), with dropout-zeroed inputs, for In on both sides of and
// off the kernel's 16-row step and Out off the 4-channel group.
func TestQuantSweepFullGrid(t *testing.T) {
	const span = 2*QuantMax + 1
	for _, d := range [][2]int{{128, 128}, {127, 126}, {16, 8}, {17, 9}, {31, 11}, {48, 5}, {15, 8}, {33, 3}, {131, 67}} {
		in, out := d[0], d[1]
		for off := 0; off < 4; off++ {
			for shift := 0; shift < span; shift += 9 {
				w, x := make([]int8, in*out), make([]int8, in)
				for i := range x {
					x[i] = int8((i+shift)%span - QuantMax)
					if i%5 == 2 {
						x[i] = 0
					}
					for j := 0; j < out; j++ {
						w[i*out+j] = int8((i*7+j*13+shift)%span - QuantMax)
					}
				}
				sweepCase(t, w, x, in, out, off)
			}
		}
		for _, v := range [][2]int8{{QuantMax, QuantMax}, {-QuantMax, -QuantMax}, {QuantMax, -QuantMax}} {
			w, x := make([]int8, in*out), make([]int8, in)
			for i := range x {
				x[i] = v[0]
			}
			for i := range w {
				w[i] = v[1]
			}
			sweepCase(t, w, x, in, out, 1)
		}
	}
}

// A zero-length operand must return before any kernel takes the address
// of its first element.
func TestKernelsZeroLength(t *testing.T) {
	var none []float64
	axpyPanel4(1, 2, 3, 4, none, none, none, none, none)
	AxpyPanels(none, none, none)
	axpy4(1, none, none)
	AxpyPanels(none, []float64{1, 2, 3, 4, 5}, none)
	if Dot(none, none) != 0 {
		t.Fatal("empty dot")
	}
	MatMulBiasInto(nil, NewMatrix(3, 0), NewMatrix(0, 16), make([]float64, 16))
	MatMulBiasInto(nil, NewMatrix(3, 16), NewMatrix(16, 0), none)
	MatMulATBInto(nil, NewMatrix(0, 16), NewMatrix(0, 16))
	MatMulABTInto(nil, NewMatrix(3, 0), NewMatrix(8, 0))
	MatMulABTInto(nil, NewMatrix(0, 16), NewMatrix(8, 16))
	MatMulBiasInto(nil, NewMatrix(0, 2), NewMatrix(2, 24), make([]float64, 24)) // 1–3 inputs
	MatMulBiasInto(nil, NewMatrix(3, 2), NewMatrix(2, 0), none)
	MatMulBiasInto(nil, NewMatrix(0, 24), NewMatrix(24, 1), []float64{1}) // narrow
	MatMulBiasInto(nil, NewMatrix(3, 0), NewMatrix(0, 1), []float64{1})
	MatMulABTInto(nil, NewMatrix(0, 1), NewMatrix(24, 1)) // k = 1
	MatMulABTInto(nil, NewMatrix(5, 1), NewMatrix(0, 1))
	TanhBackward(none, none, none, none, nil)
	TanhBackward(none, make([]float64, 24), none, none, none)
	TanhBackward([]float64{}, make([]float64, 8), []float64{}, []float64{}, []float64{})
	p := PackQuantPanel(nil, 0, 8)
	p.Sweep(make([]int32, 8), nil, nil)
	p = PackQuantPanel(nil, 32, 0)
	p.Sweep(nil, make([]int8, 32), make([]uint64, 32))
}

// fuzzFloats reads data as little-endian float64 bit patterns, so the
// fuzzer reaches every NaN, denormal and infinity directly.
func fuzzFloats(data []byte) []float64 {
	s := make([]float64, len(data)/8)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return s
}

func fuzzSeeds(f *testing.F) {
	rng := xrand.New(0xf022)
	for _, n := range []int{0, 5 * 8, 5 * 12, 5 * 19, 5 * 64} {
		s := make([]float64, n)
		fillKern(rng, s, true)
		data := make([]byte, 8*n)
		for i, v := range s {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
		}
		f.Add(data, uint8(n))
	}
}

func FuzzAxpyPanel4(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		s := fuzzFloats(data)[min(int(off%4), len(data)/8):]
		n := len(s) / 5
		if n == 0 {
			return
		}
		checkAxpyPanels(t, []float64{s[0], s[n-1], s[n], s[len(s)-1]}, s[:4*n], s[4*n:5*n], int(off/4%4))
	})
}

func FuzzAxpy4(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		s := fuzzFloats(data)
		n := len(s) / 2
		if n == 0 {
			return
		}
		o := min(int(off%4), n)
		checkAxpy4(t, s[len(s)-1], s[o:n], s[n:][o:n], int(off/4%4))
	})
}

func FuzzDotRows(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		s := fuzzFloats(data)[min(int(off%4), len(data)/8):]
		k := len(s) / 6
		if k < narrow {
			return
		}
		checkDotRows(t, s[:k], s[k:6*k], 1, 5)
	})
}

// FuzzMatMulMatchesReference draws a shape of up to 40 rows, a reduction
// and an output width of up to 140, and fills a, b, delta and the bias
// from data's bit patterns (so zeros, specials and every tail meet the
// tiles), and holds the three products to their Go loops.
func FuzzMatMulMatchesReference(f *testing.F) {
	rng := xrand.New(0xf023)
	for _, d := range [][3]uint8{{5, 128, 128}, {9, 31, 33}, {1, 4, 4}, {40, 140, 140}, {32, 24, 1}, {7, 13, 68}, {3, 2, 24}, {10, 2, 24}, {3, 3, 30}} {
		s := make([]float64, 61)
		fillKern(rng, s, true)
		data := make([]byte, 8*len(s))
		for i, v := range s {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
		}
		f.Add(data, d[0], d[1], d[2], false)
	}
	f.Fuzz(func(t *testing.T, data []byte, rows, n, p uint8, noBias bool) {
		s := fuzzFloats(data)
		if len(s) == 0 {
			return
		}
		r, k, c := int(rows)%41, int(n)%141, int(p)%141
		fill := func(dst []float64, salt int) { // strides coprime to most lengths, so the matrices differ
			for i := range dst {
				dst[i] = s[(i*salt+salt)%len(s)]
			}
		}
		a, b, delta := NewMatrix(r, k), NewMatrix(k, c), NewMatrix(r, c)
		fill(a.Data, 1)
		fill(b.Data, 3)
		fill(delta.Data, 5)
		var bias []float64
		if !noBias {
			bias = make([]float64, c)
			fill(bias, 7)
		}
		checkProducts(t, fmt.Sprintf("%dx%dx%d", r, k, c), a, b, delta, bias)
	})
}

func FuzzQuantSweep(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(17), uint8(9))
	f.Add([]byte{0x3f, 0xc1, 0, 0x7f, 0x80}, uint8(128), uint8(128))
	f.Fuzz(func(t *testing.T, data []byte, in, out uint8) {
		if len(data) == 0 {
			return
		}
		grid := func(i int) int8 { // any byte, folded onto [-QuantMax, QuantMax]
			return int8(int(data[i%len(data)])%(2*QuantMax+1) - QuantMax)
		}
		w, x := make([]int8, int(in)*int(out)), make([]int8, in)
		for i := range w {
			w[i] = grid(i)
		}
		for i := range x {
			x[i] = grid(len(w) + 3*i)
		}
		sweepCase(t, w, x, int(in), int(out), int(in)%4)
	})
}
