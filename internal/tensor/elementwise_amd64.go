//go:build amd64 && !purego

package tensor

// ewTab holds the float constants of elementwise.go, each four to a row,
// which is how the kernels of elementwise_amd64.s take them as memory
// operands; the #defines at the head of that file name the rows. One
// definition serves the reference loops and the assembly.
var ewTab = func() (t [26][4]float64) {
	for i, c := range [len(t)]float64{
		log2e, roundMagic, ln2Hi, ln2Lo,
		expC2, expC3, expC4, expC5, expC6, expC7, expC8, expC9, expC10, expC11,
		1, 2,
		tanhSmall, tanhClamp, tanhP0, tanhP1, tanhP2, tanhQ0, tanhQ1, tanhQ2,
		sigmoidLo, sigmoidHi,
	} {
		t[i] = [4]float64{c, c, c, c}
	}
	return t
}()

//go:noescape
func tanhAVX2(z *float64, n int)

//go:noescape
func sigmoidAVX2(z *float64, n int)

//go:noescape
func tanhBackwardAVX2(delta, gb, grad, y, mask *float64, rows, w, n int)

//go:noescape
func adamStepAVX2(val, grad, m, v *float64, n int, lr, beta1, beta2, eps, invC1, invC2 float64)

//go:noescape
func dropoutMaskAVX2(dst, x, mask *float64, words *uint64, n int, keep uint64, scale float64)
