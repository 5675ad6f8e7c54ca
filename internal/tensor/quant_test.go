package tensor

import (
	"math"
	"testing"
)

func refQuantDot(dst []int32, x, w []int8, in, out int) {
	for j := 0; j < out; j++ {
		s := int32(0)
		for i := 0; i < in; i++ {
			s += int32(x[i]) * int32(w[i*out+j])
		}
		dst[j] = s
	}
}

func TestQuantPanelSweepExact(t *testing.T) {
	dims := [][2]int{{6, 30}, {30, 48}, {48, 3}, {7, 5}, {64, 64}, {1, 1}, {5, 2}, {3, 9}, {13, 17}, {9, 8}, {2, 24}, {24, 1}}
	for _, d := range dims {
		in, out := d[0], d[1]
		w := make([]int8, in*out)
		x := make([]int8, in)
		for i := range w {
			w[i] = int8((i*37+11)%127 - 63)
		}
		for i := range x {
			x[i] = int8((i*91+3)%127 - 63)
		}
		p := PackQuantPanel(w, in, out)
		ux := make([]uint64, in)
		got := make([]int32, out)
		want := make([]int32, out)
		p.Sweep(got, x, ux)
		refQuantDot(want, x, w, in, out)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%dx%d col %d: got %d want %d", in, out, j, got[j], want[j])
			}
		}
	}
}

// Sweeping with zeroed entries (the dropout mask) must stay exact: the
// input-sum correction is recomputed per sweep.
func TestQuantPanelSweepMasked(t *testing.T) {
	in, out := 30, 48
	w := make([]int8, in*out)
	x := make([]int8, in)
	for i := range w {
		w[i] = int8((i*53+7)%127 - 63)
	}
	for i := range x {
		x[i] = int8((i*29+5)%127 - 63)
	}
	for i := 0; i < in; i += 3 {
		x[i] = 0
	}
	p := PackQuantPanel(w, in, out)
	ux := make([]uint64, in)
	got := make([]int32, out)
	want := make([]int32, out)
	p.Sweep(got, x, ux)
	refQuantDot(want, x, w, in, out)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("masked col %d: got %d want %d", j, got[j], want[j])
		}
	}
}

func TestPackQuantPanelDeterministic(t *testing.T) {
	in, out := 13, 17
	w := make([]int8, in*out)
	for i := range w {
		w[i] = int8((i*41+19)%127 - 63)
	}
	a := PackQuantPanel(w, in, out)
	b := PackQuantPanel(w, in, out)
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			t.Fatalf("word %d differs", i)
		}
	}
	for j := range a.ColCorr {
		if a.ColCorr[j] != b.ColCorr[j] {
			t.Fatalf("colCorr %d differs", j)
		}
	}
}

// The fused integer epilogue must track 63*act(acc*scale+bias) to well
// under one step of the 1/63 grid (measured ~0.52 including the
// half-step requant rounding).
func TestQuantEpilogueError(t *testing.T) {
	lut := BuildQuantLUT(Tanh, -4, 4)
	scale, bias := 0.00013, 0.37
	aF, cF := QuantIndexCoeffs(scale, bias, -4, 4)
	qy := make([]int8, 1)
	acc := make([]int32, 1)
	maxe := 0.0
	for a := -40000; a <= 40000; a += 7 {
		acc[0] = int32(a)
		QuantEpilogue(qy, acc, []float64{aF}, []float64{cF}, lut)
		ref := QuantMax * math.Tanh(float64(a)*scale+bias)
		if e := math.Abs(float64(qy[0]) - ref); e > maxe {
			maxe = e
		}
	}
	if maxe > 0.75 {
		t.Fatalf("epilogue max err %.3f grid steps, want <= 0.75", maxe)
	}
}

func TestQuantizeVec(t *testing.T) {
	inv := float64(QuantMax) / 2.0 // envelope |x| <= 2
	x := []float64{0, 1, -1, 0.5, 1.99, -1.99, 0.02, -0.02}
	q := make([]int8, len(x))
	if clipped := QuantizeVec(q, x, inv); clipped {
		t.Fatal("in-envelope input reported clipped")
	}
	// Half-up rounding: 1*31.5 -> 32 but -1*31.5 -> -31.
	want := []int8{0, 32, -31, 16, 63, -63, 1, -1}
	for i := range q {
		if q[i] != want[i] {
			t.Fatalf("q[%d] = %d, want %d (x=%g)", i, q[i], want[i], x[i])
		}
	}
	if clipped := QuantizeVec(q[:1], []float64{2.5}, inv); !clipped {
		t.Fatal("out-of-envelope input not reported clipped")
	}
	if q[0] != QuantMax {
		t.Fatalf("clipped value = %d, want %d", q[0], QuantMax)
	}
}

func BenchmarkQuantPanelSweep(b *testing.B) {
	in, out := 30, 48
	w := make([]int8, in*out)
	x := make([]int8, in)
	for i := range w {
		w[i] = int8((i*37)%127 - 63)
	}
	for i := range x {
		x[i] = 3
	}
	p := PackQuantPanel(w, in, out)
	ux := make([]uint64, in)
	dst := make([]int32, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p.Sweep(dst, x, ux)
	}
}
