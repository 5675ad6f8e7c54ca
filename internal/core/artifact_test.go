package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// artifactFixture trains a small dropout surrogate and returns it with its
// training inputs and its encoded artifact (drift baseline 0.25).
func artifactFixture(t testing.TB) (*NNSurrogate, *tensor.Matrix, []byte) {
	t.Helper()
	rng := xrand.New(0xa27)
	x, y := tensor.NewMatrix(30, 2), tensor.NewMatrix(30, 1)
	for i := 0; i < x.Rows; i++ {
		a, b := rng.Range(-1, 1), rng.Range(-1, 1)
		copy(x.Row(i), []float64{a, b})
		y.Row(i)[0] = math.Sin(a) - b
	}
	live := NewNNSurrogate(2, 1, []int{10}, 0.1, rng)
	live.Epochs, live.MaxBatch = 15, 8
	if err := live.Train(x, y); err != nil {
		t.Fatal(err)
	}
	blob, err := live.EncodeArtifact(0.25)
	if err != nil {
		t.Fatal(err)
	}
	return live, x, blob
}

// remeta re-encodes blob — same programs, valid CRCs, as any sender could —
// with its meta section edited.
func remeta(t testing.TB, blob []byte, edit func(*surrogateMeta)) []byte {
	t.Helper()
	art, err := nn.DecodeArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	var meta surrogateMeta
	if err := gob.NewDecoder(bytes.NewReader(art.Meta)).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	edit(&meta)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&meta); err != nil {
		t.Fatal(err)
	}
	art.Meta = buf.Bytes()
	out, err := nn.EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodeNNSurrogateRoundTrip: a restored surrogate serves the encoder's
// deterministic bits, a live MC pass, and the architecture it reports is
// read off the program — the meta no longer repeats it.
func TestDecodeNNSurrogateRoundTrip(t *testing.T) {
	live, x, blob := artifactFixture(t)
	restored, residBase, err := DecodeNNSurrogate(blob, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if residBase != 0.25 {
		t.Fatalf("drift baseline %g, want 0.25", residBase)
	}
	if in, out := restored.Dims(); in != 2 || out != 1 || len(restored.Hidden) != 1 || restored.Hidden[0] != 10 ||
		restored.Dropout != 0.1 || restored.MaxBatch != 8 || restored.MCPasses != live.MCPasses {
		t.Fatalf("restored as %d→%v→%d dropout %g max batch %d passes %d, want the encoder's 2→[10]→1, 0.1, 8, %d",
			in, restored.Hidden, out, restored.Dropout, restored.MaxBatch, restored.MCPasses, live.MCPasses)
	}
	var want, got, std tensor.Matrix
	live.PredictInto(x, &want, nil)
	restored.PredictInto(x, &got, nil)
	if !tensor.Equal(&got, &want, 0) {
		t.Fatal("warm start serves different bits than the encoder")
	}
	restored.PredictInto(x, &got, &std)
	for _, sd := range std.Data {
		if !(sd > 0) {
			t.Fatalf("restored MC std %g, want > 0", sd)
		}
	}
}

// TestDecodeRngReachesNoAnswer: the rng a blob is decoded with seeds only
// a later Train, never an answer. One blob decoded with two different rngs
// serves bit-identical means and MC stds on 64 rows, which is why the
// registry binding and the worker decode with one fixed seed.
func TestDecodeRngReachesNoAnswer(t *testing.T) {
	_, _, blob := artifactFixture(t)
	a, _, err := DecodeNNSurrogate(blob, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := DecodeNNSurrogate(blob, xrand.New(0xfeedface))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0xa29)
	x := tensor.NewMatrix(64, 2)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	var meanA, stdA, meanB, stdB tensor.Matrix
	a.PredictInto(x, &meanA, &stdA)
	b.PredictInto(x, &meanB, &stdB)
	if !tensor.Equal(&meanA, &meanB, 0) || !tensor.Equal(&stdA, &stdB, 0) {
		t.Fatal("the decode rng changed an MC answer")
	}
}

// TestDecodeMetaWithRefitFields: blobs written while the meta still carried
// the refit batch size and learning rate decode, so dropping those fields
// needed no ArtifactVersion bump (gob skips fields the receiver lacks).
func TestDecodeMetaWithRefitFields(t *testing.T) {
	live, x, blob := artifactFixture(t)
	art, err := nn.DecodeArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	var meta surrogateMeta
	if err := gob.NewDecoder(bytes.NewReader(art.Meta)).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	older := struct {
		MCPasses, Epochs, BatchSize int
		LR                          float64
		Quantize                    bool
		QGate                       float64
		XMean, XStd, YMean, YStd    []float64
		ResidBase                   float64
	}{meta.MCPasses, meta.Epochs, 32, 1e-2, meta.Quantize, meta.QGate, meta.XMean, meta.XStd, meta.YMean, meta.YStd, meta.ResidBase}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&older); err != nil {
		t.Fatal(err)
	}
	art.Meta = buf.Bytes()
	oldBlob, err := nn.EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := DecodeNNSurrogate(oldBlob, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var want, got tensor.Matrix
	live.PredictInto(x, &want, nil)
	restored.PredictInto(x, &got, nil)
	if !tensor.Equal(&got, &want, 0) {
		t.Fatal("a blob with the older meta serves different bits")
	}
}

// TestDecodeRejectsHostileMeta: artifacts arrive from other processes, and a
// well-formed one (every CRC valid) whose meta would panic the first UQ
// query (MCPasses 0), size its scratch by a wild pass count, or corrupt a
// later refit is refused at decode.
func TestDecodeRejectsHostileMeta(t *testing.T) {
	_, _, blob := artifactFixture(t)
	for name, edit := range map[string]func(*surrogateMeta){
		"MCPasses 0":         func(m *surrogateMeta) { m.MCPasses = 0 },
		"MCPasses negative":  func(m *surrogateMeta) { m.MCPasses = -1 },
		"MCPasses 1<<30":     func(m *surrogateMeta) { m.MCPasses = 1 << 30 },
		"Epochs negative":    func(m *surrogateMeta) { m.Epochs = -1 },
		"input scaler short": func(m *surrogateMeta) { m.XMean = m.XMean[:1] },
		"target std zero":    func(m *surrogateMeta) { m.YStd = []float64{0} },
	} {
		if _, _, err := DecodeNNSurrogate(remeta(t, blob, edit), xrand.New(1)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, _, err := DecodeNNSurrogate(remeta(t, blob, func(m *surrogateMeta) { m.MCPasses = maxMCPasses }), xrand.New(1)); err != nil {
		t.Errorf("MCPasses at the cap refused: %v", err)
	}
}

// TestDecodedPassCapQueryMemory: an artifact may carry up to maxMCPasses
// passes, and that count must not size the UQ scratch: the first 64-row UQ
// query of a decoded two-hidden-layer surrogate at the cap allocates under
// 4 MB (one panel per pass would be 2 × 1 024 × 64 rows × 32 floats, 33 MB).
func TestDecodedPassCapQueryMemory(t *testing.T) {
	rng := xrand.New(0xa28)
	x, y := tensor.NewMatrix(64, 4), tensor.NewMatrix(64, 2)
	for i := 0; i < x.Rows; i++ {
		r := x.Row(i)
		for j := range r {
			r[j] = rng.Range(-1, 1)
		}
		copy(y.Row(i), []float64{math.Sin(r[0]) - r[1], r[2] * r[3]})
	}
	live := NewNNSurrogate(4, 2, []int{32, 32}, 0.1, rng)
	live.Epochs = 5
	if err := live.Train(x, y); err != nil {
		t.Fatal(err)
	}
	blob, err := live.EncodeArtifact(0)
	if err != nil {
		t.Fatal(err)
	}
	sur, _, err := DecodeNNSurrogate(remeta(t, blob, func(m *surrogateMeta) { m.MCPasses = maxMCPasses }), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	mean, std := tensor.NewMatrix(64, 2), tensor.NewMatrix(64, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sur.PredictInto(x, mean, std)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("first UQ query at %d passes allocated %d bytes, want < 4 MB", maxMCPasses, got)
	}
}

// FuzzDecodeNNSurrogate: whatever the bytes, decode returns an error or a
// surrogate that answers one row with and without UQ.
func FuzzDecodeNNSurrogate(f *testing.F) {
	_, _, blob := artifactFixture(f)
	f.Add(blob)
	for _, passes := range []int{0, -1, 1 << 30} {
		f.Add(remeta(f, blob, func(m *surrogateMeta) { m.MCPasses = passes }))
	}
	f.Add(blob[:len(blob)/2])
	for _, pos := range []int{4, 41, len(blob) / 2, len(blob) - 1} {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0xA5
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sur, _, err := DecodeNNSurrogate(data, xrand.New(1))
		if err != nil {
			return
		}
		in, _ := sur.Dims()
		x := tensor.NewMatrix(1, in)
		var mean, std tensor.Matrix
		sur.PredictInto(x, &mean, nil)
		sur.PredictInto(x, &mean, &std)
	})
}
