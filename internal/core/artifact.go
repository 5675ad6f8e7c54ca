package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/xrand"
)

// This file binds NNSurrogate to the nn artifact format: a trained
// surrogate serializes into one self-verifying blob — the float program
// (the weights, once), the int8 quantized program (when it has one), and a
// meta section with what neither states: the fitted scalers, the serving
// and refit hyperparameters and the drift baseline — and deserializes into
// a surrogate that predicts bit-identically without retraining or
// recalibrating. The registry stores these blobs; a warm-started process
// serves from them directly off an mmap. Blobs also arrive from other
// processes (a router pushes them to workers), so the meta is validated
// like the programs are: nothing it says may panic or bloat the server.

// Dims reports the input/output dimensionality the surrogate maps —
// warm-start paths check it against the serving wrapper before
// installing a restored model.
func (s *NNSurrogate) Dims() (in, out int) { return s.inDim, s.outDim }

// maxMCPasses bounds a decoded MCPasses. The bound is statistical: no UQ
// estimate needs more stochastic passes. The pass-group panels do not grow
// with passes; the mask store does, passes × the suffix's dropout widths
// (2 MB at the cap for two 128-wide dropouts).
const maxMCPasses = 1024

// surrogateMeta is the gob-encoded artifact meta section: what an
// NNSurrogate needs beyond the programs. The architecture is not here —
// the model section's layer table is the one place that states it.
type surrogateMeta struct {
	MCPasses    int
	Epochs      int
	Quantize    bool
	QGate       float64
	XMean, XStd []float64
	YMean, YStd []float64
	// ResidBase is the drift baseline recorded at publish time (the
	// model's in-sample residual), carried alongside the model so a
	// warm-started wrapper resumes drift tracking where the publisher
	// left off instead of from zero.
	ResidBase float64
}

// EncodeArtifact serializes a trained surrogate into the checksummed nn
// artifact format. residBase is the drift baseline to carry with the
// model (0 when drift tracking is off). The returned blob round-trips
// through DecodeNNSurrogate into a surrogate whose deterministic and
// quantized passes are bit-identical to this one's.
func (s *NNSurrogate) EncodeArtifact(residBase float64) ([]byte, error) {
	if !s.trained {
		return nil, errors.New("core: cannot encode untrained surrogate")
	}
	meta := surrogateMeta{
		MCPasses: s.MCPasses, Epochs: s.Epochs, Quantize: s.Quantize, QGate: s.qgate,
		XMean: s.xScaler.Mean, XStd: s.xScaler.Std,
		YMean: s.yScaler.Mean, YStd: s.yScaler.Std,
		ResidBase: residBase,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&meta); err != nil {
		return nil, fmt.Errorf("core: encode artifact meta: %w", err)
	}
	return nn.EncodeArtifact(&nn.Artifact{Meta: buf.Bytes(), Compiled: s.compiled, Quant: s.qcompiled})
}

// DecodeNNSurrogate reconstructs a trained NNSurrogate from an artifact
// blob, returning it with the drift baseline recorded at encode time.
// The surrogate serves immediately — no retraining or recalibration —
// and its deterministic prediction paths are bit-identical to the
// encoder's. The restored surrogate's refits draw from a stream split off
// rng; its MC-dropout streams are seeded by the blob.
func DecodeNNSurrogate(data []byte, rng *xrand.Rand) (*NNSurrogate, float64, error) {
	art, err := nn.DecodeArtifact(data)
	if err != nil {
		return nil, 0, err
	}
	var meta surrogateMeta
	if err := gob.NewDecoder(bytes.NewReader(art.Meta)).Decode(&meta); err != nil {
		return nil, 0, fmt.Errorf("core: decode artifact meta: %w", err)
	}
	if meta.MCPasses < 1 || meta.MCPasses > maxMCPasses {
		return nil, 0, fmt.Errorf("core: artifact MCPasses %d outside [1, %d]", meta.MCPasses, maxMCPasses)
	}
	if meta.Epochs < 0 {
		return nil, 0, fmt.Errorf("core: artifact refit epochs %d invalid", meta.Epochs)
	}
	in, out := art.Compiled.Dims()
	xsc, err := scalerFromMeta(meta.XMean, meta.XStd, in, "input")
	if err != nil {
		return nil, 0, err
	}
	ysc, err := scalerFromMeta(meta.YMean, meta.YStd, out, "target")
	if err != nil {
		return nil, 0, err
	}
	return &NNSurrogate{
		Hidden: art.Compiled.Hidden(), Dropout: art.Compiled.Dropout(), MCPasses: meta.MCPasses,
		MaxBatch: art.Compiled.MaxBatch(), Epochs: meta.Epochs, Quantize: meta.Quantize,
		rng: rng.Split(), inDim: in, outDim: out,
		compiled: art.Compiled, qcompiled: art.Quant,
		qgate: meta.QGate, xScaler: xsc, yScaler: ysc,
		trained: true,
	}, meta.ResidBase, nil
}

// scalerFromMeta validates and rebuilds one fitted scaler from its meta
// vectors, fail-closed: a scaler with the wrong width, non-finite
// moments, or non-positive stds would silently corrupt every prediction
// the restored model serves.
func scalerFromMeta(mean, std []float64, dim int, which string) (*nn.Scaler, error) {
	if len(mean) != dim || len(std) != dim {
		return nil, fmt.Errorf("core: artifact %s scaler has %d/%d entries, want %d", which, len(mean), len(std), dim)
	}
	for j := 0; j < dim; j++ {
		if !isFinite(mean[j]) || !isFinite(std[j]) || std[j] <= 0 {
			return nil, fmt.Errorf("core: artifact %s scaler has invalid moments at dim %d", which, j)
		}
	}
	return &nn.Scaler{Mean: mean, Std: std}, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
