//go:build !amd64 || purego

package tensor

// No assembly on this target: the Go loops are the only path, and the
// kernels below are never reached.
const useAVX2, useAVX512 = false, false

func sweepPairAVX2(c0, c1, ux *uint64, n int) (ae0, ao0, ae1, ao1 uint64) { return }

func panelTileAVX2(out, a, b, bias *float64, rows, n, arow, astep, p, pv int)   {}
func panelTileAVX512(out, a, b, seed *float64, rows, n, arow, astep, p, pv int) {}
func dotTileAVX2(dst, a, b *float64, rows, k, kv, m, mv int)                    {}
func dotTileAVX512(dst, a, b *float64, rows, k, kv, m, mv int)                  {}
func colAxpyAVX2(d, a, b *float64, n, m, mv int)                                {}
func narrowColAVX2(out, a, b *float64, bias float64, blocks, n, p, kn int)      {}
func outerAVX2(dst, a, b *float64, rows, m, mv int)                             {}

func tanhAVX2(z *float64, n int) {}
func adamStepAVX2(val, grad, m, v *float64, n int, lr, beta1, beta2, eps, invC1, invC2 float64) {
}
func dropoutMaskAVX2(dst, x, mask *float64, words *uint64, n int, keep uint64, scale float64) {}
func tanhBackwardAVX2(delta, gb, grad, y, mask *float64, rows, w, n int)                      {}
