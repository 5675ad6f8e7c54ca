package nn

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// buildArtifact trains a small dropout MLP, compiles and quantizes it,
// and returns the encoded artifact alongside the network and the live
// programs.
func buildArtifact(t *testing.T, seed uint64) (*Network, *Artifact, []byte) {
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
	a := &Artifact{Meta: []byte("meta-payload"), Compiled: c, Quant: q}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	return net, a, data
}

// TestEncodeArtifactSizedOnce: the encoder sizes the artifact, makes one
// buffer — its only allocation — and encodes every section where it lies,
// the weights once: without a quant section the blob is the slab plus
// under 512 bytes of envelope, header and layer table (the format that
// stored a network beside its program was twice that). The bytes of this
// format version are pinned by length and FNV-64a.
func TestEncodeArtifactSizedOnce(t *testing.T) {
	wide := NewMLP(xrand.New(5), Tanh, 0.1, 8, 128, 128, 4)
	a := &Artifact{Compiled: wide.CompileBatch(32), Meta: []byte("1234567")}
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	if limit := 8*len(wide.slab) + len(a.Meta) + 512; len(data) > limit {
		t.Fatalf("artifact of %d bytes for %d parameters, want at most %d: the weights are stored more than once",
			len(data), len(wide.slab), limit)
	}
	h := fnv.New64a()
	h.Write(data)
	if len(data) != 145656 || h.Sum64() != 0x8305f93d76be6473 {
		t.Fatalf("artifact of %d bytes, FNV %#x: not the bytes this format version had", len(data), h.Sum64())
	}
	if allocs := testing.AllocsPerRun(10, func() { EncodeArtifact(a) }); allocs > 1 {
		t.Fatalf("EncodeArtifact allocates %g times, want 1", allocs)
	}
}

// artifactRoundTrip encodes c alone — no int8 program, no meta — and
// decodes it back.
func artifactRoundTrip(t *testing.T, c *Compiled) *Compiled {
	t.Helper()
	data, err := EncodeArtifact(&Artifact{Compiled: c})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Quant != nil || len(got.Meta) != 0 {
		t.Fatal("program-only artifact decoded with sections it never carried")
	}
	return got.Compiled
}

// The headline round-trip property the registry warm-start relies on:
// a decoded artifact serves bit-identical deterministic predictions to
// the programs that were encoded, for both the float and the quantized
// compiled forms, with no recompilation or recalibration.
func TestArtifactRoundTripBitIdentical(t *testing.T) {
	net, a, data := buildArtifact(t, 11)
	if err := VerifyArtifact(data); err != nil {
		t.Fatalf("verify: %v", err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Meta) != "meta-payload" {
		t.Fatalf("meta round-trip: %q", got.Meta)
	}
	if got.Quant == nil {
		t.Fatal("decoded artifact lost its int8 program")
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
		a.Compiled.predict(x, want)
		got.Compiled.predict(x, have)
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
	// The restored program holds the trained weights: it matches the
	// encoder's layer graph, the reference, in eval mode.
	out := evalRow(net, x)
	got.Compiled.predict(x, have)
	for j := range out {
		if math.Abs(out[j]-have[j]) > 1e-12 {
			t.Fatalf("restored weights drifted: %v vs %v", have[j], out[j])
		}
	}
}

// TestArtifactDecodeAliasesOrCopies: on a little-endian host a decode of an
// 8-byte-aligned buffer serves the weights from that buffer (zero-copy over
// the registry's mmap), and the same bytes at an odd address take the copy
// path — the only one on other hosts — to the same answers, bit for bit.
func TestArtifactDecodeAliasesOrCopies(t *testing.T) {
	_, _, data := buildArtifact(t, 17)
	within := func(c *Compiled, buf []byte) bool {
		p, lo := uintptr(unsafe.Pointer(&c.slab[0])), uintptr(unsafe.Pointer(&buf[0]))
		return p >= lo && p < lo+uintptr(len(buf))
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		t.Fatal("the encoder's buffer is not 8-byte aligned: the aliasing half of this test would be vacuous")
	}
	aligned, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if hostLittle && !within(aligned.Compiled, data) {
		t.Fatal("decoded slab is a copy, want a view of the input buffer")
	}
	odd := append(make([]byte, 1, len(data)+1), data...)[1:]
	copied, err := DecodeArtifact(odd)
	if err != nil {
		t.Fatal(err)
	}
	if within(copied.Compiled, odd) {
		t.Fatal("decoded slab aliases a misaligned buffer")
	}
	rng := xrand.New(2)
	xs := tensor.NewMatrix(40, 3)
	for i := range xs.Data {
		xs.Data[i] = rng.Range(-1.5, 1.5)
	}
	if !tensor.Equal(copied.Compiled.PredictBatch(xs, nil), aligned.Compiled.PredictBatch(xs, nil), 0) {
		t.Fatal("copy-path float program diverged from the aliased one")
	}
	if !tensor.Equal(copied.Quant.PredictBatch(xs, nil, nil), aligned.Quant.PredictBatch(xs, nil, nil), 0) {
		t.Fatal("copy-path int8 program diverged from the aliased one")
	}
}

// Batch entry points of the decoded programs must work off the pooled
// scratch rebuilt at decode time (maxW and fs are recomputed from the
// layer table, not stored).
func TestArtifactDecodedBatchServing(t *testing.T) {
	_, a, data := buildArtifact(t, 23)
	got, err := DecodeArtifact(data)
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
	_, _, data := buildArtifact(t, 31)
	// Sample positions across the whole blob (every byte would be slow).
	for pos := 0; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		vErr := VerifyArtifact(mut)
		_, dErr := DecodeArtifact(mut)
		if vErr == nil && dErr == nil {
			// A flip inside padding or a reserved field can be benign;
			// it must then decode to a program serving identical outputs.
			a, _ := DecodeArtifact(data)
			b, _ := DecodeArtifact(mut)
			x := []float64{0.3, -0.7, 0.9}
			av := a.Compiled.predict(x, nil)
			bv := b.Compiled.predict(x, nil)
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
	_, _, data := buildArtifact(t, 41)
	for n := 0; n < len(data); n += 13 {
		if err := VerifyArtifact(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes passed verification", n)
		}
		if _, err := DecodeArtifact(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
}

// Version skew fails closed: a decoder must not guess at a future format,
// nor serve a past one (version 2 stored the weights in sections this
// decoder no longer has; version 1 rebuilt its int8 tables from math.Tanh).
func TestArtifactVersionSkew(t *testing.T) {
	_, _, data := buildArtifact(t, 51)
	blobs := [][]byte{{
		'L', 'E', 'S', 'A', 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, // a version-2 header: magic, version, one section
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // an empty meta section (the CRC of nothing is 0)
	}}
	for _, v := range []int{ArtifactVersion + 1, ArtifactVersion - 1} {
		mut := append([]byte(nil), data...)
		mut[4] = byte(v)
		blobs = append(blobs, mut)
	}
	for _, blob := range blobs {
		if err := VerifyArtifact(blob); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: verification gave %v, want a version error", blob[4], err)
		}
		if _, err := DecodeArtifact(blob); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: decode gave %v, want a version error", blob[4], err)
		}
	}
}

// tableRow is one row of a crafted model section's layer table.
type tableRow struct {
	kind, in, out, act uint32
	p                  float64
}

// craftModel returns an artifact — valid envelope, valid CRC — whose only
// section is a model payload saying exactly what it is given: the header
// fields, a layer count, the table rows and a slab of slab floats.
func craftModel(in, out, maxBatch, count uint32, rows []tableRow, slab int) []byte {
	write := func(e *artEnc) {
		e.u32(artifactMagic)
		e.u32(ArtifactVersion)
		e.u32(1)
		e.u32(0)
		e.section(secModel, func() {
			e.u32(in)
			e.u32(out)
			e.u32(maxBatch)
			e.u32(count)
			e.u64(42)
			for _, r := range rows {
				e.u32(r.kind)
				e.u32(r.in)
				e.u32(r.out)
				e.u32(r.act)
				e.f64(r.p)
			}
			putRaw(e, make([]float64, slab))
		})
	}
	var e artEnc
	write(&e)
	e = artEnc{buf: make([]byte, e.off)}
	write(&e)
	return e.buf
}

// Decoding must reject corrupt geometry instead of panicking later: each
// case is a well-formed artifact (the CRC holds — a sender computes it)
// around a model section with one thing wrong, refused for that thing.
func TestLoadValidatesGeometry(t *testing.T) {
	dense := func(in, out uint32) tableRow { return tableRow{kind: 0, in: in, out: out, act: uint32(Tanh)} }
	drop := func(p float64) tableRow { return tableRow{kind: 1, p: p} }
	mlp := []tableRow{dense(2, 3), drop(0.1), dense(3, 1)} // 2·3+3 + 3·1+1 = 13 parameters
	with := func(i int, r tableRow) []tableRow {
		rows := append([]tableRow(nil), mlp...)
		rows[i] = r
		return rows
	}
	if _, err := DecodeArtifact(craftModel(2, 1, 8, 3, mlp, 13)); err != nil {
		t.Fatalf("the well-formed control was refused: %v", err)
	}
	neg2 := uint32(1<<32 - 2)
	cases := []struct {
		name                  string
		in, out, batch, count uint32
		rows                  []tableRow
		slab                  int
		want                  string
	}{
		{"no layers", 2, 1, 8, 0, nil, 0, "layer count"},
		{"too many layers", 2, 1, 8, artMaxLayers + 1, mlp, 13, "layer count"},
		{"table shorter than its count", 2, 1, 8, 4, mlp, 0, "truncated"},
		{"non-positive dims", 2, 1, 8, 3, with(0, dense(0, 3)), 13, "dims"},
		{"negative dims", 2, 1, 8, 3, with(2, dense(3, neg2)), 13, "dims"},
		{"dims over the cap", 2, 1, 8, 3, with(2, dense(3, artMaxDim+1)), 13, "dims"},
		{"header width zero", 0, 1, 8, 3, mlp, 13, "input width"},
		{"W length mismatch", 2, 1, 8, 3, mlp, 12, "parameters"},
		{"B length mismatch", 2, 1, 8, 3, mlp, 14, "parameters"},
		{"slab absent", 2, 1, 8, 3, mlp, 0, "parameters"},
		{"bad activation", 2, 1, 8, 3, with(0, tableRow{kind: 0, in: 2, out: 3, act: 9}), 13, "activation"},
		{"dropout P high", 2, 1, 8, 3, with(1, drop(1.0)), 13, "dropout P"},
		{"dropout P negative", 2, 1, 8, 3, with(1, drop(-0.1)), 13, "dropout P"},
		{"dropout P NaN", 2, 1, 8, 3, with(1, drop(math.NaN())), 13, "dropout P"},
		{"broken width chain", 2, 1, 8, 3, with(2, dense(4, 1)), 14, "width chain"},
		{"first fan-in vs header", 3, 1, 8, 3, mlp, 13, "fan-in"},
		{"final width vs header", 2, 2, 8, 3, mlp, 13, "final width"},
		{"unknown layer kind", 2, 1, 8, 3, with(1, tableRow{kind: 2}), 13, "layer kind"},
		{"no dense layer", 2, 1, 8, 1, []tableRow{drop(0.1)}, 0, "no dense"},
		{"max batch zero", 2, 1, 0, 3, mlp, 13, "max batch"},
		{"max batch over the cap", 2, 1, artMaxBatch + 1, 3, mlp, 13, "max batch"},
	}
	for _, tc := range cases {
		blob := craftModel(tc.in, tc.out, tc.batch, tc.count, tc.rows, tc.slab)
		if err := VerifyArtifact(blob); err != nil {
			t.Errorf("%s: the crafted envelope is itself invalid: %v", tc.name, err)
		}
		if _, err := DecodeArtifact(blob); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refused with %q, want the %q rejection", tc.name, err, tc.want)
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
	valid, err := EncodeArtifact(&Artifact{Meta: []byte("m"), Compiled: c, Quant: q})
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
		a, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		// A successful decode must yield a servable program set.
		in, _ := a.Compiled.Dims()
		a.Compiled.predict(make([]float64, in), nil)
		if a.Quant != nil {
			in, _ := a.Quant.Dims()
			a.Quant.Predict(make([]float64, in), nil)
		}
	})
}
