// Package tensor implements the dense linear algebra needed by the neural
// network surrogates: row-major matrices, BLAS-1 vector kernels, and a
// register-tiled matrix multiply, the HPCforML kernels the paper discusses
// in §III-A. It is deliberately small — the paper's surrogate networks are
// MLPs with tens of hidden units — and its kernels run on the caller's
// goroutine: concurrency lives where work is independent and coarse (shard
// fits, oracle workers, the coalescer and the fleet), not inside one
// product.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic("tensor: row index out of range")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Reshape resizes m to rows x cols in place, reusing the backing slice
// when its capacity suffices and reallocating otherwise. Element values
// after a Reshape are unspecified; callers are expected to overwrite them.
// It returns m for chaining.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative dimension")
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// AppendRow appends one row (len == Cols) to m, growing the backing slice
// amortized-geometrically. Views previously taken with SliceRows remain
// valid but may stop aliasing m after a growth reallocation. Appending to
// a SliceRows view itself is safe for the parent — the view's capacity is
// clamped to its own rows, so the append reallocates instead of growing
// into the parent's data.
func (m *Matrix) AppendRow(row []float64) {
	if len(row) != m.Cols {
		panic(fmt.Sprintf("tensor: append row of len %d to %d-col matrix", len(row), m.Cols))
	}
	m.Data = append(m.Data, row...)
	m.Rows++
}

// GatherRowsInto copies the rows of src indexed by idx into dst, reshaping
// dst to len(idx) x src.Cols, and returns dst. A nil dst allocates. This is
// the row-partition kernel sharded serving uses to assemble per-shard
// batches without per-row allocations.
func GatherRowsInto(dst, src *Matrix, idx []int) *Matrix {
	if dst == nil {
		dst = NewMatrix(len(idx), src.Cols)
	} else {
		dst.Reshape(len(idx), src.Cols)
	}
	c := src.Cols
	switch c {
	case 1: // a surrogate's one input or target: one value an index
		d := dst.Data[:len(idx)]
		for k, i := range idx {
			d[k] = src.Data[i]
		}
		return dst
	case 2:
		d := dst.Data[:2*len(idx)]
		for k, i := range idx {
			s := src.Data[2*i : 2*i+2 : 2*i+2]
			d[2*k], d[2*k+1] = s[0], s[1]
		}
		return dst
	}
	for k, i := range idx {
		d, s := dst.Data[k*c:(k+1)*c], src.Data[i*c:(i+1)*c]
		if c > 8 {
			copy(d, s)
			continue
		}
		for j := range d { // a feature row: the call to memmove costs more than the copy
			d[j] = s[j]
		}
	}
	return dst
}

// RepeatRowsInto tiles src vertically times times into dst, reshaping dst
// to times*src.Rows x src.Cols, and returns dst. A nil dst allocates.
// This assembles the tall panel pass-stacked MC evaluation runs all
// passes through at once.
func RepeatRowsInto(dst, src *Matrix, times int) *Matrix {
	if times < 0 {
		panic("tensor: negative repeat count")
	}
	if dst == nil {
		dst = NewMatrix(times*src.Rows, src.Cols)
	} else {
		dst.Reshape(times*src.Rows, src.Cols)
	}
	n := src.Rows * src.Cols
	for t := 0; t < times; t++ {
		copy(dst.Data[t*n:(t+1)*n], src.Data)
	}
	return dst
}

// SliceRows returns a view of rows [lo,hi) sharing m's backing array.
// Mutations through the view are visible in m and vice versa.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("tensor: row slice [%d,%d) out of %d rows", lo, hi, m.Rows))
	}
	// Full slice expression clamps capacity so a later Reshape/append on
	// the view cannot silently grow into the parent's remaining rows.
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols]}
}

// Hadamard stores the element-wise product a*b into dst and returns dst.
func Hadamard(dst, a, b *Matrix) *Matrix {
	sameShape(a, b)
	dst = ensure(dst, a.Rows, a.Cols)
	x, y, z := a.Data, b.Data[:len(a.Data)], dst.Data[:len(a.Data)] // bounds-check elimination hints
	for i, v := range x {
		z[i] = v * y[i]
	}
	return dst
}

// MatMulBiasInto stores a*b + bias into dst (bias broadcast over rows,
// len(bias) == b.Cols) and returns dst. Each destination row is seeded
// with the bias and accumulated by panelRows, four source rows fused per
// step — no separate zeroing or bias pass — rounding as the one-row
// reference AxpyPanels (panel_test.go) does over a bias-seeded row. dst
// must be a.Rows x b.Cols and must not alias a or b.
func MatMulBiasInto(dst, a, b *Matrix, bias []float64) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: bias of len %d for %d-col product", len(bias), b.Cols))
	}
	dst = ensure(dst, a.Rows, b.Cols)
	matMulBiasRange(dst, a, b, bias, 0, a.Rows)
	return dst
}

// narrow is the output width below which a row holds less than one
// 4-vector of a tile (a surrogate's 1- to 3-wide output layer and its
// gradients): the products switch to the thin-shape paths there, and
// every wider product runs on panelRows' register tile.
const narrow = 4

// matMulBiasRange computes rows [lo,hi) of out = a*b + bias (a nil bias
// is zero): for a narrow b matMulNarrowRange, else panelRows over a's
// rows, each out row seeded before it accumulates, so a reused
// destination never leaks stale values. A surrogate's one- to three-input
// layer is all reduction tail there: the bias, then each nonzero a_k·b_k
// in k order.
func matMulBiasRange(out, a, b *Matrix, bias []float64, lo, hi int) {
	n, p := a.Cols, b.Cols
	if p < narrow {
		matMulNarrowRange(out, a, b, bias, lo, hi)
		return
	}
	panelRows(out.Data[lo*p:hi*p], a.Data[lo*n:], n, 1, b.Data, bias, hi-lo, n, p)
}

// panelRows computes rows output rows of one p-wide product, row r at
// out[r*p:], from the n rows of b and the values a[r*arow + k*astep], k <
// n, of row r's reduction: the row is seeded from seed (zero when nil),
// then each 4-block of k adds ((a_k·b_k + a_k+1·b_k+1) + a_k+2·b_k+2) +
// a_k+3·b_k+3 and each k of the n%4 tail adds a_k·b_k unless a_k is zero.
// The forward product reads a's rows (arow = n, astep = 1), the weight
// gradient aᵀ·b its columns (arow = 1, astep = a.Cols). With AVX2,
// panelTileAVX2 takes the whole 4-vectors of every row, a register tile
// of up to 32 columns held from seed to store across the reduction, and
// the loop below the last p%4 columns; the loop alone is the reference.
func panelRows(out, a []float64, arow, astep int, b, seed []float64, rows, n, p int) {
	pv := 0
	if useAVX2 && p >= narrow && n > 0 && rows > 0 {
		pv = p &^ 3
		var s *float64
		if seed != nil {
			s = &seed[0]
		}
		panelTileAVX2(&out[0], &a[0], &b[0], s, rows, n, arow, astep, p, pv)
		if pv == p {
			return
		}
	}
	for r := 0; r < rows; r++ {
		y := out[r*p+pv : (r+1)*p]
		if seed != nil {
			copy(y, seed[pv:])
		} else {
			for j := range y {
				y[j] = 0
			}
		}
		if n == 0 {
			continue
		}
		ar, k := a[r*arow:], 0
		for ; k+4 <= n; k += 4 {
			axpyPanel4(ar[k*astep], ar[(k+1)*astep], ar[(k+2)*astep], ar[(k+3)*astep],
				b[k*p+pv:(k+1)*p], b[(k+1)*p+pv:(k+2)*p], b[(k+2)*p+pv:(k+3)*p], b[(k+3)*p+pv:(k+4)*p], y)
		}
		for ; k < n; k++ {
			if v := ar[k*astep]; v != 0 {
				axpy4(v, b[k*p+pv:(k+1)*p], y)
			}
		}
	}
}

// matMulNarrowRange is matMulBiasRange for a narrow b: one strided dot per
// output element, summed in the panel kernel's order (four products per
// accumulation) so both paths round alike. With AVX2, narrowColAVX2 takes
// the 4-blocks of each whole group of four rows, a lane a row, and the
// loop below their k tail and the last (hi-lo)%4 rows.
func matMulNarrowRange(out, a, b *Matrix, bias []float64, lo, hi int) {
	n, p := a.Cols, b.Cols
	bd := b.Data
	kn, vecEnd := 0, lo // rows below vecEnd hold the sums of their first kn products
	if blocks := (hi - lo) / 4; useAVX2 && n >= 4 && blocks > 0 {
		kn, vecEnd = n&^3, lo+4*blocks
		for j := 0; j < p; j++ {
			s := 0.0
			if bias != nil {
				s = bias[j]
			}
			narrowColAVX2(&out.Data[lo*p+j], &a.Data[lo*n], &bd[j], s, blocks, n, p, kn)
		}
	}
	i := lo
	if kn == n {
		i = vecEnd
	}
	for ; i < hi; i++ {
		aRow := a.Data[i*n : (i+1)*n]
		for j := 0; j < p; j++ {
			s, k := 0.0, 0
			if i < vecEnd {
				s, k = out.Data[i*p+j], kn
			} else if bias != nil {
				s = bias[j]
			}
			for ; k+4 <= n; k += 4 {
				s += aRow[k]*bd[k*p+j] + aRow[k+1]*bd[(k+1)*p+j] + aRow[k+2]*bd[(k+2)*p+j] + aRow[k+3]*bd[(k+3)*p+j]
			}
			for ; k < n; k++ {
				s += aRow[k] * bd[k*p+j]
			}
			out.Data[i*p+j] = s
		}
	}
}

// MatMulATBInto stores aᵀ*b into dst and returns dst, without ever
// materializing the transpose: for a (n x m) and b (n x p), dst (m x p)
// accumulates dst[j,:] += a[i,j]*b[i,:] streaming b rows sequentially.
// dst must not alias a or b. This is the gradient kernel GW = xᵀ·delta.
func MatMulATBInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmul-ATB shape mismatch %dx%dᵀ * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = ensure(dst, a.Cols, b.Cols)
	matMulATBRange(dst, a, b, 0, a.Cols)
	return dst
}

// matMulATBRange computes dst rows [lo,hi) of dst = aᵀ*b: panelRows over
// a's columns, or for p < narrow a sample-outermost loop.
func matMulATBRange(dst, a, b *Matrix, lo, hi int) {
	n, m, p := a.Rows, a.Cols, b.Cols
	if p >= narrow {
		var cols []float64 // a from column lo on; with no samples, nothing
		if n > 0 {
			cols = a.Data[lo:]
		}
		panelRows(dst.Data[lo*p:hi*p], cols, 1, m, b.Data, nil, hi-lo, n, p)
		return
	}
	// Sample-outermost: dst[j,:] += a[i,j]*b[i,:] with a's rows
	// contiguous, and for p == 1 dst itself one contiguous axpy. With
	// AVX2, colAxpyAVX2 takes the whole 4-vectors of that axpy, held in
	// registers across the samples.
	d := dst.Data[lo*p : hi*p]
	jv := 0
	if useAVX2 && p == 1 && len(d) >= 4 && n > 0 {
		jv = len(d) &^ 3
		colAxpyAVX2(&d[0], &a.Data[lo], &b.Data[0], n, m, jv)
	}
	if d = d[jv*p:]; len(d) == 0 {
		return
	}
	for x := range d {
		d[x] = 0
	}
	for i := 0; i < n; i++ {
		aRow, bRow := a.Data[i*m+lo+jv:i*m+hi], b.Data[i*p:(i+1)*p]
		if p == 1 {
			axpy4(bRow[0], aRow, d)
			continue
		}
		for j, av := range aRow {
			for c, bv := range bRow {
				d[j*p+c] += av * bv
			}
		}
	}
}

// MatMulABTInto stores a*bᵀ into dst and returns dst, without
// materializing the transpose: for a (n x k) and b (m x k), dst[i,j] is
// the dot product of row i of a with row j of b — both contiguous. dst
// must not alias a or b. This is the backprop kernel dX = delta·Wᵀ.
func MatMulABTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-ABT shape mismatch %dx%d * %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = ensure(dst, a.Rows, b.Rows)
	matMulABTRange(dst, a, b, 0, a.Rows)
	return dst
}

// matMulABTRange computes dst rows [lo,hi) of dst = a*bᵀ: one dot4 a
// element (with AVX2 the 2x4 tiles of dotTiles take the whole 4-blocks of
// b's rows), or for k < narrow strided sweeps of b.
func matMulABTRange(dst, a, b *Matrix, lo, hi int) {
	k, m := a.Cols, b.Rows
	if k == 1 { // a scaled copy of b's one column a row: an outer product
		mv := 0
		if useAVX2 && m >= 4 && hi > lo {
			mv = m &^ 3
			outerAVX2(&dst.Data[lo*m], &a.Data[lo], &b.Data[0], hi-lo, m, mv)
		}
		col := b.Data[mv:m]
		for i := lo; i < hi; i++ {
			a0, dstRow := a.Data[i], dst.Data[i*m+mv:(i+1)*m]
			col := col[:len(dstRow)] // bounds-check elimination hint
			for j := range dstRow {
				dstRow[j] = a0 * col[j]
			}
		}
		return
	}
	mv := 0
	if useAVX2 && k >= narrow && m >= 4 && hi > lo {
		mv = m &^ 3
		dotTiles(dst, a, b, lo, hi, mv)
	}
	for i := lo; i < hi; i++ {
		aRow := a.Data[i*k : (i+1)*k]
		dstRow := dst.Data[i*m : (i+1)*m]
		if k > 0 && k < narrow {
			// One strided sweep of b per a element, not a dot call per
			// dst element.
			for j := range dstRow {
				dstRow[j] = aRow[0] * b.Data[j*k]
			}
			for c := 1; c < k; c++ {
				for j := range dstRow {
					dstRow[j] += aRow[c] * b.Data[j*k+c]
				}
			}
			continue
		}
		for j := mv; j < m; j++ {
			dstRow[j] = dot4(aRow, b.Data[j*k:(j+1)*k])
		}
	}
}

// dotTiles stores dot4(a_i, b_j) into dst[i][j] for rows [lo,hi) of a and
// the first mv rows of b, k >= narrow, mv a positive multiple of 4: the
// assembly's 2x4 tiles cover the whole vectors, dot4's scalar tail
// follows here in dot4's order.
func dotTiles(dst, a, b *Matrix, lo, hi, mv int) {
	k, m := a.Cols, b.Rows
	kv := k &^ 3
	dotTileAVX2(&dst.Data[lo*m], &a.Data[lo*k], &b.Data[0], hi-lo, k, kv, m, mv)
	if kv == k {
		return
	}
	for i := lo; i < hi; i++ {
		aRow, dstRow := a.Data[i*k:(i+1)*k], dst.Data[i*m:i*m+mv]
		for j := range dstRow {
			s, bRow := dstRow[j], b.Data[j*k:(j+1)*k]
			for q := kv; q < k; q++ {
				s += aRow[q] * bRow[q]
			}
			dstRow[j] = s
		}
	}
}

// ParallelWorkers is read by nothing: every product runs on the caller's
// goroutine.
//
// Deprecated: it stays declared only because benchmark/probe_tensor.go
// pins it, and it goes together with that pin in the next edit to
// benchmark/.
var ParallelWorkers int

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	return dot4(a, b)
}

// dot4 is the unchecked dot kernel: four independent accumulators break
// the floating-point add dependency chain, which otherwise serializes
// the loop at FP-add latency.
func dot4(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a4, b4 := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += a4[0] * b4[0]
		s1 += a4[1] * b4[1]
		s2 += a4[2] * b4[2]
		s3 += a4[3] * b4[3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// axpyPanel4 computes y += a0*b0 + a1*b1 + a2*b2 + a3*b3 in one sweep:
// one 4-block of panelRows' Go loop, and with it the rounding every tile
// of panelTileAVX2 reproduces.
func axpyPanel4(a0, a1, a2, a3 float64, b0, b1, b2, b3, y []float64) {
	b0 = b0[:len(y)] // bounds-check elimination hints
	b1 = b1[:len(y)]
	b2 = b2[:len(y)]
	b3 = b3[:len(y)]
	for j := range y {
		y[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// axpy4 is the unchecked y += alpha*x kernel, 4-way unrolled to cut loop
// overhead and keep independent stores in flight. With AVX2 the products
// reach it only for the ≤ 3 elements their tiles leave: panelRows' last
// p%4 columns and a one-column aᵀ·b's last rows.
func axpy4(alpha float64, x, y []float64) {
	y = y[:len(x)] // bounds-check elimination hint
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4, y4 := x[i:i+4:i+4], y[i:i+4:i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Equal reports whether two matrices have the same shape and all elements
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether the matrix contains any NaN or Inf element; used
// as a guard in training loops (failure injection surfaces here).
func HasNaN(m *Matrix) bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func sameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func ensure(dst *Matrix, rows, cols int) *Matrix {
	if dst == nil {
		return NewMatrix(rows, cols)
	}
	if dst.Rows != rows || dst.Cols != cols {
		panic("tensor: destination shape mismatch")
	}
	return dst
}
