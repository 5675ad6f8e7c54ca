package tensor

// Int8 quantized panel kernels for the compiled inference hot path.
//
// The grid is symmetric 7-bit: quantized values live in [-QuantMax,
// QuantMax] = [-63, 63]. Seven bits instead of eight buys the SWAR
// trick below: biasing a value by +64 maps it into [1, 127], so the
// product of two biased values is at most 127*127 = 16129 and FOUR such
// row products fit in a 16-bit lane (4*16129 = 64516 < 65536) before
// any lane splitting is needed. A weight panel therefore packs four
// output channels per uint64 word (16-bit lanes, group-major: all `in`
// words of a column group are contiguous), and the sweep runs the whole
// dense step as plain 64-bit integer multiply-adds — no per-element sign
// handling — splitting lanes into 32-bit accumulators only once every
// four input rows. The layout is also what a vector unit wants: on amd64
// with AVX2 the first In&^15 rows of each pair of column groups go
// through sweepPairAVX2 (kern_amd64.s), four words a register, the same
// 16-bit lane products and the same lane split; the Go loops below are
// the whole sweep everywhere else and its tail there.
//
// Bias arithmetic: with u = x+64 and v = w+64,
//
//	sum_i x_i*w_ij = sum_i u_i*v_ij - 64*sum_i w_ij - 64*sum_i x_i - 4096*in
//
// The weight column sums are folded into ColCorr at pack time; the
// input sum is recomputed by every sweep (so callers may zero entries
// of x — MC-dropout masking — without invalidating anything).

const (
	// QuantMax is the magnitude of the symmetric int8 quantization
	// grid: quantized weights and activations live in [-63, 63], and a
	// per-channel scale maps grid steps back to real units.
	QuantMax = 63

	quantBias = 64 // biased representation offset: [-63,63] -> [1,127]
	laneMask  = 0x0000FFFF0000FFFF
)

// QuantPanel is an int8 weight panel packed for the SWAR sweep: four
// output channels per uint64 word in 16-bit lanes, column groups
// stored group-major so each group's `In` words stream contiguously.
type QuantPanel struct {
	In, Out int
	// Words holds Groups()*In packed words; word g*In+i carries
	// channels 4g..4g+3 of input row i, each biased by +64.
	Words []uint64
	// ColCorr[j] = -64 * sum_i q[i][j], the compile-time half of the
	// bias-correction identity above.
	ColCorr []int32
}

// Groups reports the number of 4-channel column groups in the panel.
func (p *QuantPanel) Groups() int { return (p.Out + 3) / 4 }

// PackQuantPanel packs a row-major in×out int8 weight panel (values in
// [-QuantMax, QuantMax]) into the group-major biased-word layout the
// sweep consumes. Packing is deterministic: equal int8 panels produce
// bit-identical Words/ColCorr.
func PackQuantPanel(q []int8, in, out int) QuantPanel {
	if len(q) != in*out {
		panic("tensor: PackQuantPanel: len(q) != in*out")
	}
	outW := (out + 3) / 4
	p := QuantPanel{
		In: in, Out: out,
		Words:   make([]uint64, outW*in),
		ColCorr: make([]int32, out),
	}
	for i := 0; i < in; i++ {
		for j := 0; j < out; j++ {
			v := uint64(int32(q[i*out+j]) + quantBias)
			p.Words[(j/4)*in+i] |= v << (16 * uint(j%4))
		}
	}
	for j := 0; j < out; j++ {
		s := int32(0)
		for i := 0; i < in; i++ {
			s += int32(q[i*out+j])
		}
		p.ColCorr[j] = -quantBias * s
	}
	return p
}

// Sweep computes dst[j] = sum_i x[i]*q[i][j] exactly in int32 for
// x values in [-QuantMax, QuantMax]. ux is caller scratch of len >=
// p.In (pooled by compiled programs so the hot path stays 0 alloc).
// dst must have len p.Out. Entries of x may be zeroed between sweeps
// (dropout masking): the input-sum correction is recomputed here.
func (p *QuantPanel) Sweep(dst []int32, x []int8, ux []uint64) {
	in := p.In
	x = x[:in]
	sumX := int32(0)
	for i, v := range x {
		sumX += int32(v)
		ux[i] = uint64(int32(v) + quantBias)
	}
	qcorr := -quantBias*sumX - quantBias*quantBias*int32(in)
	ux = ux[:in]
	words, colCorr := p.Words, p.ColCorr
	outW := (p.Out + 3) / 4
	g := 0
	// Two column groups per pass with register accumulators and an
	// 8-row unroll (two independent 4-row lane sums per group) keeps
	// the multiply ports busy; measured ~5% over the 1-group variant.
	for ; g+2 <= outW; g += 2 {
		c0 := words[g*in : (g+1)*in]
		c0 = c0[:in]
		c1 := words[(g+1)*in : (g+2)*in]
		c1 = c1[:in]
		var ae0, ao0, ae1, ao1 uint64
		i := 0
		if useAVX2 && in >= 16 {
			i = in &^ 15
			ae0, ao0, ae1, ao1 = sweepPairAVX2(&c0[0], &c1[0], &ux[0], i)
		}
		for ; i+8 <= in; i += 8 {
			u0, u1, u2, u3 := ux[i], ux[i+1], ux[i+2], ux[i+3]
			u4, u5, u6, u7 := ux[i+4], ux[i+5], ux[i+6], ux[i+7]
			qa := u0*c0[i] + u1*c0[i+1] + u2*c0[i+2] + u3*c0[i+3]
			qb := u4*c0[i+4] + u5*c0[i+5] + u6*c0[i+6] + u7*c0[i+7]
			ae0 += (qa & laneMask) + (qb & laneMask)
			ao0 += ((qa >> 16) & laneMask) + ((qb >> 16) & laneMask)
			qa = u0*c1[i] + u1*c1[i+1] + u2*c1[i+2] + u3*c1[i+3]
			qb = u4*c1[i+4] + u5*c1[i+5] + u6*c1[i+6] + u7*c1[i+7]
			ae1 += (qa & laneMask) + (qb & laneMask)
			ao1 += ((qa >> 16) & laneMask) + ((qb >> 16) & laneMask)
		}
		for ; i+4 <= in; i += 4 {
			u0, u1, u2, u3 := ux[i], ux[i+1], ux[i+2], ux[i+3]
			q0 := u0*c0[i] + u1*c0[i+1] + u2*c0[i+2] + u3*c0[i+3]
			q1 := u0*c1[i] + u1*c1[i+1] + u2*c1[i+2] + u3*c1[i+3]
			ae0 += q0 & laneMask
			ao0 += (q0 >> 16) & laneMask
			ae1 += q1 & laneMask
			ao1 += (q1 >> 16) & laneMask
		}
		for ; i < in; i++ {
			u := ux[i]
			q0 := u * c0[i]
			q1 := u * c1[i]
			ae0 += q0 & laneMask
			ao0 += (q0 >> 16) & laneMask
			ae1 += q1 & laneMask
			ao1 += (q1 >> 16) & laneMask
		}
		emit4(dst, colCorr, g*4, qcorr, ae0, ao0)
		emit4(dst, colCorr, g*4+4, qcorr, ae1, ao1)
	}
	for ; g < outW; g++ {
		col := words[g*in : (g+1)*in]
		col = col[:in]
		var ae, ao uint64
		i := 0
		for ; i+4 <= in; i += 4 {
			q := ux[i]*col[i] + ux[i+1]*col[i+1] + ux[i+2]*col[i+2] + ux[i+3]*col[i+3]
			ae += q & laneMask
			ao += (q >> 16) & laneMask
		}
		for ; i < in; i++ {
			q := ux[i] * col[i]
			ae += q & laneMask
			ao += (q >> 16) & laneMask
		}
		emit4(dst, colCorr, g*4, qcorr, ae, ao)
	}
}

// emit4 unpacks one column group's even/odd lane accumulators into up
// to four corrected int32 dot products. Lane layout after the split:
// channel base+0 in ae's low 32 bits, base+1 in ao's low, base+2 in
// ae's high, base+3 in ao's high.
func emit4(dst, colCorr []int32, base int, qcorr int32, ae, ao uint64) {
	n := len(dst) - base
	s0 := int32(ae&0xFFFFFFFF) + qcorr
	s1 := int32(ao&0xFFFFFFFF) + qcorr
	s2 := int32(ae>>32) + qcorr
	s3 := int32(ao>>32) + qcorr
	switch {
	case n >= 4:
		dst[base] = s0 + colCorr[base]
		dst[base+1] = s1 + colCorr[base+1]
		dst[base+2] = s2 + colCorr[base+2]
		dst[base+3] = s3 + colCorr[base+3]
	case n == 3:
		dst[base] = s0 + colCorr[base]
		dst[base+1] = s1 + colCorr[base+1]
		dst[base+2] = s2 + colCorr[base+2]
	case n == 2:
		dst[base] = s0 + colCorr[base]
		dst[base+1] = s1 + colCorr[base+1]
	case n == 1:
		dst[base] = s0 + colCorr[base]
	}
}

// ---- fused dequant + activation + requant epilogue ----

const (
	// QuantLUTKnots is the number of interpolation intervals in a
	// QuantLUT; the fixed-point activation index runs over
	// [0, QuantLUTKnots << quantIdxBits].
	QuantLUTKnots = 128
	quantIdxBits  = 14
	quantIdxScale = 1 << quantIdxBits
	quantIdxMax   = QuantLUTKnots << quantIdxBits
)

// QuantLUT tabulates an activation on a uniform grid in 2.14
// fixed-point output units of the quantization grid: knot i holds
// round(16384 * QuantMax * act(lo + i*(hi-lo)/QuantLUTKnots)). The
// extra guard knot lets the interpolator read i+1 at the top clamp.
type QuantLUT [QuantLUTKnots + 2]int32

// BuildQuantLUT samples act (an in-place slice activation, the float
// programs' own) over [lo, hi] into a fused
// dequant+activation+requant table. Outside [lo, hi] the epilogue
// clamps to the endpoint values, so [lo, hi] must cover the region
// where act is still moving at the resolution of the 1/QuantMax grid
// (e.g. [-4, 4] for tanh, [-8, 8] for sigmoid).
func BuildQuantLUT(act func([]float64), lo, hi float64) *QuantLUT {
	var lut QuantLUT
	var knots [QuantLUTKnots + 1]float64
	step := (hi - lo) / QuantLUTKnots
	for i := range knots {
		knots[i] = lo + float64(i)*step
	}
	act(knots[:])
	for i, v := range knots {
		lut[i] = int32(roundHalfEven(quantIdxScale * QuantMax * v))
	}
	lut[QuantLUTKnots+1] = lut[QuantLUTKnots] // guard knot
	return &lut
}

// QuantEpilogue fuses dequantization, bias, activation and
// requantization into one integer pass: for each channel j it maps the
// raw int32 accumulator through the affine index transform
// idx = acc*aF[j] + cF[j] (aF/cF precomputed so that idx linearly spans
// the LUT domain as acc*scale+bias spans [lo, hi]), clamps, and
// linearly interpolates the 2.14 fixed-point table — producing the
// next layer's int8 activation with no float activation call and no
// division. Max observed error vs exact float act is ~0.52 steps of
// the 1/QuantMax grid.
func QuantEpilogue(qy []int8, acc []int32, aF, cF []float64, lut *QuantLUT) {
	acc = acc[:len(qy)]
	aF = aF[:len(qy)]
	cF = cF[:len(qy)]
	for j, a := range acc {
		idx := int32(float64(a)*aF[j] + cF[j])
		if uint32(idx) >= quantIdxMax {
			if idx < 0 {
				idx = 0
			} else {
				idx = quantIdxMax
			}
		}
		i := idx >> quantIdxBits
		fr := int64(idx & (quantIdxScale - 1))
		lo := lut[i]
		v := int64(lo) + (int64(lut[i+1]-lo)*fr)>>quantIdxBits
		qy[j] = int8((v + quantIdxScale/2) >> quantIdxBits)
	}
}

// QuantIndexCoeffs converts a channel's real-valued pre-activation
// affine map acc -> acc*scale + bias into the LUT index coefficients
// QuantEpilogue consumes for a table built over [lo, hi].
func QuantIndexCoeffs(scale, bias, lo, hi float64) (aF, cF float64) {
	perUnit := QuantLUTKnots * quantIdxScale / (hi - lo)
	return scale * perUnit, (bias - lo) * perUnit
}

// QuantizeVec quantizes a float vector onto the int8 grid with a fixed
// inverse scale (inv = QuantMax / envelope): dst[i] =
// round(x[i]*inv), clamped to [-QuantMax, QuantMax]. It reports
// whether any element clipped — the signal that the input left the
// calibrated envelope and the compile-time error bound no longer
// holds. Rounding is half-up via the +64 bias trick (the shifted value
// is always positive, so truncation is a floor), branch-light and
// deterministic.
func QuantizeVec(dst []int8, x []float64, inv float64) (clipped bool) {
	x = x[:len(dst)]
	for i, v := range x {
		f := v * inv
		if f > QuantMax {
			f = QuantMax
			clipped = true
		} else if f < -QuantMax {
			f = -QuantMax
			clipped = true
		}
		dst[i] = int8(int32(f+quantBias+0.5) - quantBias)
	}
	return clipped
}

func roundHalfEven(v float64) float64 {
	f := int64(v)
	d := v - float64(f)
	switch {
	case d > 0.5 || (d == 0.5 && f%2 != 0):
		return float64(f + 1)
	case d < -0.5 || (d == -0.5 && f%2 != 0):
		return float64(f - 1)
	}
	return float64(f)
}
