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
// surrogate serializes into one self-verifying blob — network weights,
// the compiled float program, the int8 quantized program (when it has
// one), the fitted scalers, and every serving hyperparameter — and
// deserializes into a surrogate that predicts bit-identically without
// retraining or recalibrating. The registry stores these blobs; a
// warm-started process serves from them directly off an mmap. A blob
// that carries the network but no compiled section is compiled on load
// (deterministically, so the answers are the same bits); one whose
// network has no program is rejected.

// Dims reports the input/output dimensionality the surrogate maps —
// warm-start paths check it against the serving wrapper before
// installing a restored model.
func (s *NNSurrogate) Dims() (in, out int) { return s.inDim, s.outDim }

// surrogateMeta is the gob-encoded artifact meta section: everything an
// NNSurrogate needs beyond the nn payloads themselves.
type surrogateMeta struct {
	InDim, OutDim int
	Hidden        []int
	Dropout       float64
	MCPasses      int
	MaxBatch      int
	Epochs        int
	BatchSize     int
	LR            float64
	Quantize      bool
	QGate         float64
	XMean, XStd   []float64
	YMean, YStd   []float64
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
	if !s.trained || s.net == nil {
		return nil, errors.New("core: cannot encode untrained surrogate")
	}
	meta := surrogateMeta{
		InDim: s.inDim, OutDim: s.outDim,
		Hidden: s.Hidden, Dropout: s.Dropout, MCPasses: s.MCPasses,
		MaxBatch: s.MaxBatch, Epochs: s.Epochs, BatchSize: s.BatchSize,
		LR: s.LR, Quantize: s.Quantize, QGate: s.qgate,
		XMean: s.xScaler.Mean, XStd: s.xScaler.Std,
		YMean: s.yScaler.Mean, YStd: s.yScaler.Std,
		ResidBase: residBase,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&meta); err != nil {
		return nil, fmt.Errorf("core: encode artifact meta: %w", err)
	}
	return nn.EncodeArtifact(&nn.Artifact{
		Meta:     buf.Bytes(),
		Net:      s.net,
		Compiled: s.compiled,
		Quant:    s.qcompiled,
	})
}

// DecodeNNSurrogate reconstructs a trained NNSurrogate from an artifact
// blob, returning it with the drift baseline recorded at encode time.
// The surrogate serves immediately — no retraining or recalibration —
// and its deterministic prediction paths are bit-identical to the
// encoder's. rng seeds the restored surrogate's
// MC-dropout stream (stochastic UQ passes need a live rng; the
// deterministic paths never touch it).
func DecodeNNSurrogate(data []byte, rng *xrand.Rand) (*NNSurrogate, float64, error) {
	art, err := nn.DecodeArtifact(data, rng.Split())
	if err != nil {
		return nil, 0, err
	}
	if art.Net == nil {
		return nil, 0, errors.New("core: artifact has no network section")
	}
	var meta surrogateMeta
	if err := gob.NewDecoder(bytes.NewReader(art.Meta)).Decode(&meta); err != nil {
		return nil, 0, fmt.Errorf("core: decode artifact meta: %w", err)
	}
	if in, out, ok := art.Net.Dims(); !ok || in != meta.InDim || out != meta.OutDim {
		return nil, 0, fmt.Errorf("core: artifact meta claims %d→%d, network is %d→%d", meta.InDim, meta.OutDim, in, out)
	}
	xsc, err := scalerFromMeta(meta.XMean, meta.XStd, meta.InDim, "input")
	if err != nil {
		return nil, 0, err
	}
	ysc, err := scalerFromMeta(meta.YMean, meta.YStd, meta.OutDim, "target")
	if err != nil {
		return nil, 0, err
	}
	s := &NNSurrogate{
		Hidden: meta.Hidden, Dropout: meta.Dropout, MCPasses: meta.MCPasses,
		MaxBatch: meta.MaxBatch, Epochs: meta.Epochs, BatchSize: meta.BatchSize,
		LR: meta.LR, Quantize: meta.Quantize,
		rng: rng, inDim: meta.InDim, outDim: meta.OutDim,
		net: art.Net, compiled: art.Compiled, qcompiled: art.Quant,
		qgate: meta.QGate, xScaler: xsc, yScaler: ysc,
		trained: true,
	}
	if s.compiled == nil {
		if s.compiled = art.Net.CompileBatch(s.batchWidth()); s.compiled == nil {
			return nil, 0, errors.New("core: artifact network has no dense layer to compile")
		}
	}
	return s, meta.ResidBase, nil
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
