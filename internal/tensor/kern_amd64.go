//go:build amd64 && !purego

package tensor

// useAVX2 selects the assembly kernels of kern_amd64.s: one CPUID/XGETBV
// check at init, no switch. Without AVX2 the Go loops run.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // the OS saves XMM and YMM state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func panelTileAVX2(out, a, b, bias *float64, rows, n, arow, astep, p, pv int)

//go:noescape
func axpy4AVX2(alpha float64, x, y *float64, n int)

//go:noescape
func dotTileAVX2(dst, a, b *float64, rows, k, kv, m, mv int)

//go:noescape
func colAxpyAVX2(d, a, b *float64, n, m, mv int)

//go:noescape
func shortRowsAVX2(out, a, b0, bm, bl, bias *float64, rows, n, p, pv int) (done int)

//go:noescape
func narrowColAVX2(out, a, b *float64, bias float64, blocks, n, p, kn int)

//go:noescape
func outerAVX2(dst, a, b *float64, rows, m, mv int)

//go:noescape
func sweepPairAVX2(c0, c1, ux *uint64, n int) (ae0, ao0, ae1, ao1 uint64)
