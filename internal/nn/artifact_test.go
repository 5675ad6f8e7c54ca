package nn

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// buildArtifact trains a small dropout MLP, compiles and quantizes it,
// and returns the encoded artifact alongside the live programs.
func buildArtifact(t *testing.T, seed uint64) (*Artifact, []byte) {
	t.Helper()
	net, calib := trainQuantNet(t, seed, Tanh, 0.1, 3, 16, 2)
	c := net.CompileBatch(32)
	if c == nil {
		t.Fatal("compile failed")
	}
	q := c.Quantize(calib)
	if q == nil {
		t.Fatal("quantize failed")
	}
	a := &Artifact{Meta: []byte("meta-payload"), Net: net, Compiled: c, Quant: q}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	return a, data
}

// TestEncodeArtifactSizedOnce: the encoder sizes the artifact, makes one
// buffer and encodes every section where it lies — at most 3 allocations
// for the wide net's 290 kB — and the bytes are the ones the encoder that
// grew a buffer per section wrote (pinned by length and FNV-64a).
func TestEncodeArtifactSizedOnce(t *testing.T) {
	wide := NewMLP(xrand.New(5), Tanh, 0.1, 8, 128, 128, 4)
	a := &Artifact{Net: wide, Compiled: wide.CompileBatch(32), Meta: []byte("1234567")}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if len(data) != 291168 || h.Sum64() != 0xc68bb65574524640 {
		t.Fatalf("artifact of %d bytes, FNV %#x: not the bytes this format version had", len(data), h.Sum64())
	}
	if allocs := testing.AllocsPerRun(10, func() { EncodeArtifact(a) }); allocs > 3 {
		t.Fatalf("EncodeArtifact allocates %g times, want at most 3", allocs)
	}
}

// artifactRoundTrip encodes net alone — no compiled programs, no meta —
// and decodes it back: the path a restored model that recompiles takes.
func artifactRoundTrip(t *testing.T, net *Network, rng *xrand.Rand) *Network {
	t.Helper()
	data, err := EncodeArtifact(&Artifact{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(data, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Compiled != nil || got.Quant != nil || len(got.Meta) != 0 {
		t.Fatal("network-only artifact decoded with sections it never carried")
	}
	return got.Net
}

// The headline round-trip property the registry warm-start relies on:
// a decoded artifact serves bit-identical deterministic predictions to
// the programs that were encoded, for both the float and the quantized
// compiled forms, with no recompilation or recalibration.
func TestArtifactRoundTripBitIdentical(t *testing.T) {
	a, data := buildArtifact(t, 11)
	if err := VerifyArtifact(data); err != nil {
		t.Fatalf("verify: %v", err)
	}
	got, err := DecodeArtifact(data, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Meta) != "meta-payload" {
		t.Fatalf("meta round-trip: %q", got.Meta)
	}
	if got.Compiled == nil || got.Quant == nil {
		t.Fatal("decoded artifact lost a compiled program")
	}
	if got.Quant.GateBound() != a.Quant.GateBound() ||
		got.Quant.ErrorBound() != a.Quant.ErrorBound() ||
		got.Quant.CalibratedError() != a.Quant.CalibratedError() {
		t.Fatalf("quant error figures drifted: gate %v vs %v", got.Quant.GateBound(), a.Quant.GateBound())
	}
	rng := xrand.New(7)
	x := make([]float64, 3)
	want := make([]float64, 2)
	have := make([]float64, 2)
	qwant := make([]float64, 2)
	qhave := make([]float64, 2)
	for trial := 0; trial < 200; trial++ {
		for j := range x {
			x[j] = rng.Range(-1.5, 1.5)
		}
		a.Compiled.Predict(x, want)
		got.Compiled.Predict(x, have)
		for j := range want {
			if want[j] != have[j] {
				t.Fatalf("float predict diverged at %d: %v vs %v", j, want[j], have[j])
			}
		}
		_, okW := a.Quant.Predict(x, qwant)
		_, okH := got.Quant.Predict(x, qhave)
		if okW != okH {
			t.Fatalf("quant clip flag diverged")
		}
		for j := range qwant {
			if qwant[j] != qhave[j] {
				t.Fatalf("quant predict diverged at %d: %v vs %v", j, qwant[j], qhave[j])
			}
		}
	}
	// The restored Network is an independent trainable copy with the same
	// weights: the layer graph's eval forward matches the compiled program.
	out := evalRow(got.Net, x)
	a.Compiled.Predict(x, want)
	for j := range want {
		if math.Abs(out[j]-want[j]) > 1e-12 {
			t.Fatalf("network weights drifted: %v vs %v", out[j], want[j])
		}
	}
}

// Batch entry points of the decoded programs must work off the pooled
// scratch rebuilt at decode time (maxW/fs/maxBatch are recomputed, not
// trusted from the payload).
func TestArtifactDecodedBatchServing(t *testing.T) {
	a, data := buildArtifact(t, 23)
	got, err := DecodeArtifact(data, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	xs := tensor.NewMatrix(70, 3) // > maxBatch=32: forces chunking
	for i := range xs.Data {
		xs.Data[i] = rng.Range(-1.5, 1.5)
	}
	want := a.Compiled.PredictBatch(xs, nil)
	have := got.Compiled.PredictBatch(xs, nil)
	for i := range want.Data {
		if want.Data[i] != have.Data[i] {
			t.Fatalf("batch predict diverged at %d", i)
		}
	}
	okq := make([]bool, xs.Rows)
	qw := a.Quant.PredictBatch(xs, nil, nil)
	qh := got.Quant.PredictBatch(xs, nil, okq)
	for i := range qw.Data {
		if qw.Data[i] != qh.Data[i] {
			t.Fatalf("quant batch predict diverged at %d", i)
		}
	}
	mean, std := got.Compiled.PredictMCBatch(xs, 8, nil, nil)
	if mean.Rows != xs.Rows || std.Rows != xs.Rows {
		t.Fatal("MC batch shape")
	}
}

// Corrupting any single byte of the artifact must be detected by
// VerifyArtifact (CRC) or rejected by DecodeArtifact — never panic,
// never decode to a silently wrong program that served.
func TestArtifactBitFlipDetected(t *testing.T) {
	_, data := buildArtifact(t, 31)
	// Sample positions across the whole blob (every byte would be slow).
	for pos := 0; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		vErr := VerifyArtifact(mut)
		_, dErr := DecodeArtifact(mut, xrand.New(1))
		if vErr == nil && dErr == nil {
			// A flip inside padding or a reserved field can be benign;
			// it must then decode to a program serving identical outputs.
			a, _ := DecodeArtifact(data, xrand.New(1))
			b, _ := DecodeArtifact(mut, xrand.New(1))
			x := []float64{0.3, -0.7, 0.9}
			av := a.Compiled.Predict(x, nil)
			bv := b.Compiled.Predict(x, nil)
			for j := range av {
				if av[j] != bv[j] {
					t.Fatalf("flip at %d undetected but changed output", pos)
				}
			}
		}
	}
}

// Truncations at every length must fail closed.
func TestArtifactTruncationDetected(t *testing.T) {
	_, data := buildArtifact(t, 41)
	for n := 0; n < len(data); n += 13 {
		if err := VerifyArtifact(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes passed verification", n)
		}
		if _, err := DecodeArtifact(data[:n], xrand.New(1)); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
}

// Version skew fails closed: a decoder must not guess at a future format,
// nor serve a past one (version 1 rebuilt its int8 tables from math.Tanh).
func TestArtifactVersionSkew(t *testing.T) {
	_, data := buildArtifact(t, 51)
	for _, v := range []int{ArtifactVersion + 1, ArtifactVersion - 1} {
		mut := append([]byte(nil), data...)
		mut[4] = byte(v)
		if err := VerifyArtifact(mut); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: verification gave %v, want a version error", v, err)
		}
	}
}

// Decoding must reject corrupt geometry instead of panicking later.
func TestLoadValidatesGeometry(t *testing.T) {
	rng := xrand.New(1)
	cases := []struct {
		name   string
		layers []layerSpec
	}{
		{"no layers", nil},
		{"non-positive dims", []layerSpec{{Kind: "dense", In: 0, Out: 4, W: nil, B: make([]float64, 4)}}},
		{"negative dims", []layerSpec{{Kind: "dense", In: 3, Out: -2}}},
		{"W length mismatch", []layerSpec{{Kind: "dense", In: 2, Out: 2, W: make([]float64, 3), B: make([]float64, 2)}}},
		{"B length mismatch", []layerSpec{{Kind: "dense", In: 2, Out: 2, W: make([]float64, 4), B: make([]float64, 1)}}},
		{"bad activation", []layerSpec{{Kind: "dense", In: 2, Out: 2, Act: 9, W: make([]float64, 4), B: make([]float64, 2)}}},
		{"dropout P high", []layerSpec{{Kind: "dropout", P: 1.0}}},
		{"dropout P NaN", []layerSpec{{Kind: "dropout", P: math.NaN()}}},
		{"broken width chain", []layerSpec{
			{Kind: "dense", In: 2, Out: 3, W: make([]float64, 6), B: make([]float64, 3)},
			{Kind: "dense", In: 4, Out: 1, W: make([]float64, 4), B: make([]float64, 1)},
		}},
	}
	for _, tc := range cases {
		if _, err := buildNetwork(tc.layers, rng); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzArtifactDecode hammers the decoder with truncated, bit-flipped and
// version-skewed inputs (the same pattern as netserve's
// FuzzParseRequest): whatever the bytes, decode must return cleanly —
// error or valid artifact — and never panic or over-allocate.
func FuzzArtifactDecode(f *testing.F) {
	net := NewMLP(xrand.New(5), Tanh, 0.1, 2, 8, 1)
	c := net.Compile()
	q := c.Quantize(nil)
	valid, err := EncodeArtifact(&Artifact{Meta: []byte("m"), Net: net, Compiled: c, Quant: q})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:17])
	f.Add([]byte{})
	skew := append([]byte(nil), valid...)
	skew[4] = 0xFF
	f.Add(skew)
	for _, pos := range []int{0, 8, 20, 40, 64, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0xA5
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeArtifact(data, xrand.New(1))
		if err != nil {
			return
		}
		// A successful decode must yield a servable program set.
		if a.Net == nil {
			t.Fatal("decode succeeded without a network")
		}
		if a.Compiled != nil {
			in, _ := a.Compiled.Dims()
			a.Compiled.Predict(make([]float64, in), nil)
		}
		if a.Quant != nil {
			in, _ := a.Quant.Dims()
			a.Quant.Predict(make([]float64, in), nil)
		}
	})
}
