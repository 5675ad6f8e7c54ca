//go:build amd64 && !purego

package tensor

// useAVX2 and useAVX512 select the assembly kernels of kern_amd64.s: one
// CPUID/XGETBV check at init, no switch. useAVX512 is only ever set with
// useAVX2, and takes the three training products' register tiles to ZMM;
// every other kernel stays on AVX2. Without AVX2 the Go loops run.
var useAVX2, useAVX512 = simdTiers()

func simdTiers() (avx2, avx512 bool) {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // the OS saves XMM and YMM state
		return false, false
	}
	_, b, _, _ := cpuid(7, 0)
	avx2 = b&(1<<5) != 0
	// AVX512F, and the OS saves the opmask and all 32 ZMM registers.
	avx512 = avx2 && b&(1<<16) != 0 && xcr0&0xe0 == 0xe0
	return avx2, avx512
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func panelTileAVX2(out, a, b, bias *float64, rows, n, arow, astep, p, pv int)

//go:noescape
func panelTileAVX512(out, a, b, seed *float64, rows, n, arow, astep, p, pv int)

//go:noescape
func dotTileAVX2(dst, a, b *float64, rows, k, kv, m, mv int)

//go:noescape
func dotTileAVX512(dst, a, b *float64, rows, k, kv, m, mv int)

//go:noescape
func colAxpyAVX2(d, a, b *float64, n, m, mv int)

//go:noescape
func narrowColAVX2(out, a, b *float64, bias float64, blocks, n, p, kn int)

//go:noescape
func outerAVX2(dst, a, b *float64, rows, m, mv int)

//go:noescape
func sweepPairAVX2(c0, c1, ux *uint64, n int) (ae0, ao0, ae1, ao1 uint64)
