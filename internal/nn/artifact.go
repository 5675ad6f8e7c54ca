package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"unsafe"

	"repro/internal/tensor"
)

// This file implements the serialized artifact format behind the surrogate
// registry: one self-describing binary blob that carries a generation's
// float program — its weights once, in the layout the program runs on —
// and, when it has one, its QuantCompiled program with panel layouts, quant
// scales and error bounds, so a process that pulls an artifact serves
// immediately, with zero retraining, recompilation or recalibration.
//
// Layout (all integers little-endian, every section payload 8-byte aligned
// in the file):
//
//	header:  magic "LESA" (u32) | version (u32) | section count (u32) | reserved (u32)
//	section: id (u32) | reserved (u32) | payload len (u64) | CRC64-ECMA of payload (u64)
//	         payload, zero-padded to a multiple of 8 bytes
//
//	model payload: in (u32) | out (u32) | max batch (u32) | layer count (u32) | seed base (u64)
//	               layer table, one row a layer:
//	                 kind (u32: 0 dense, 1 dropout) | in (u32) | out (u32) | activation (u32) | dropout p (f64)
//	               slab: every dense layer's W (in x out, row-major) then B, in layer
//	                 order — Σ(in·out+out) float64 and nothing after them
//
// Per-section CRCs make torn or bit-flipped artifacts detectable without
// decoding; VerifyArtifact walks the envelope and checks every CRC, which
// is what the registry runs against an mmap'd file before serving it.
// Float and word arrays are stored raw: the encoder writes each with one
// bulk copy and the decoder aliases it straight out of the (mmap'd) buffer —
// the model slab, the quant scales, panels and bounds — when the host is
// little-endian and the array lies aligned, which it does in any buffer
// that itself starts 8-byte aligned. Otherwise the array is copied. The
// programs are immutable by contract, which is what makes the zero-copy
// view safe; the header fields, the layer table and the meta are read, not
// aliased (Artifact.Meta is a sub-slice of the input).

const (
	artifactMagic = 0x4153454c // "LESA" little-endian
	// ArtifactVersion is the current artifact format version; decoders
	// reject any other (fail closed on version skew: the registry
	// quarantines the blob and the shard refits). Version 3 stores the
	// weights once, in the model section; version 2 stored them in a network
	// and again in a compiled section, and version 1 additionally marks
	// int8 lookup tables sampled from math.Tanh, not tensor.Tanh.
	ArtifactVersion = 3

	secMeta  = 1 // opaque caller metadata (the registry stores surrogate config here)
	secQuant = 4 // int8 quantized program
	secModel = 5 // float program: header, layer table, weight slab

	artMaxSections = 64
	artMaxLayers   = 1024
	artMaxDim      = 1 << 20
	artMaxBatch    = 1 << 16
)

var artCRCTable = crc64.MakeTable(crc64.ECMA)

// hostLittle reports whether this machine stores integers little-endian —
// the precondition for aliasing raw arrays out of the artifact buffer.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// rawElem is what the format stores as raw arrays.
type rawElem interface{ float64 | uint64 | int32 }

// rawBytes is v's storage as bytes.
func rawBytes[T rawElem](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(v[0])))
}

// leCopy copies elements of size bytes each between host and little-endian
// byte order — the same operation in both directions.
func leCopy(dst, src []byte, size int) {
	if hostLittle {
		copy(dst, src)
		return
	}
	for i := 0; i+size <= len(src); i += size {
		for k := 0; k < size; k++ {
			dst[i+k] = src[i+size-1-k]
		}
	}
}

// Artifact bundles everything the registry persists for one surrogate
// generation. Compiled is required; Quant and Meta are optional.
type Artifact struct {
	// Meta is an opaque caller payload (config, scalers, baselines).
	Meta []byte
	// Compiled is the float serving program, the generation's weights.
	Compiled *Compiled
	// Quant is the int8 serving program, nil if absent.
	Quant *QuantCompiled
}

// ---------------------------------------------------------------------------
// encoder

// artEnc writes into buf at off. With a nil buf it only advances off: the
// encoder is run once that way to size the artifact, so the buffer is made
// once at its final length and every section is encoded where it lies.
type artEnc struct {
	buf  []byte
	off  int
	nsec uint32   // sections written
	void [16]byte // what the sizing pass writes into
}

// put reserves the next n bytes and returns where to write them.
func (e *artEnc) put(n int) []byte {
	e.off += n
	if e.buf == nil {
		return e.void[:]
	}
	return e.buf[e.off-n:]
}

func (e *artEnc) u32(v uint32) { binary.LittleEndian.PutUint32(e.put(4), v) }

func (e *artEnc) u64(v uint64) { binary.LittleEndian.PutUint64(e.put(8), v) }

func (e *artEnc) f64(v float64) { e.u64(math.Float64bits(v)) }

// align8 pads with zeros, which a fresh buffer already holds.
func (e *artEnc) align8() { e.off = (e.off + 7) &^ 7 }

// putRaw writes v as a raw array, 8-byte aligned.
func putRaw[T rawElem](e *artEnc, v []T) {
	e.align8()
	src := rawBytes(v)
	if dst := e.put(len(src)); e.buf != nil {
		leCopy(dst, src, int(unsafe.Sizeof(v[0])))
	}
}

// section writes one section: header, the payload body encodes (sections
// start 8-byte aligned in the file, so padding inside a payload falls where
// it would in a payload encoded alone), its length and CRC, and padding.
func (e *artEnc) section(id uint32, body func()) {
	e.nsec++
	e.u32(id)
	e.u32(0)
	head, start := e.put(16), e.off
	body()
	binary.LittleEndian.PutUint64(head, uint64(e.off-start))
	if e.buf != nil {
		binary.LittleEndian.PutUint64(head[8:], crc64.Checksum(e.buf[start:e.off], artCRCTable))
	}
	e.align8()
}

// EncodeArtifact serializes a into the checksummed binary artifact format.
func EncodeArtifact(a *Artifact) ([]byte, error) {
	if a.Compiled == nil {
		return nil, fmt.Errorf("nn: artifact needs a compiled program")
	}
	var e artEnc
	e.artifact(a) // sizing pass
	e = artEnc{buf: make([]byte, e.off)}
	e.artifact(a)
	return e.buf, nil
}

func (e *artEnc) artifact(a *Artifact) {
	e.u32(artifactMagic)
	e.u32(ArtifactVersion)
	count := e.put(8) // the section count, known once they are written, and a reserved word
	if a.Meta != nil {
		e.section(secMeta, func() { copy(e.put(len(a.Meta)), a.Meta) })
	}
	e.section(secModel, func() { e.model(a.Compiled) })
	if a.Quant != nil {
		e.section(secQuant, func() { e.quant(a.Quant) })
	}
	binary.LittleEndian.PutUint32(count, e.nsec)
}

func (e *artEnc) model(c *Compiled) {
	e.u32(uint32(c.in))
	e.u32(uint32(c.out))
	e.u32(uint32(c.maxBatch))
	e.u32(uint32(len(c.steps)))
	e.u64(c.seedBase)
	for i := range c.steps {
		st := &c.steps[i]
		e.u32(uint32(st.kind))
		e.u32(uint32(st.in))
		e.u32(uint32(st.out))
		e.u32(uint32(st.act))
		e.f64(st.p)
	}
	putRaw(e, c.slab)
}

func (e *artEnc) quant(q *QuantCompiled) {
	e.u32(uint32(q.in))
	e.u32(uint32(q.out))
	e.u32(uint32(len(q.steps)))
	e.u32(0)
	e.u64(q.seedBase)
	e.f64(q.inScale)
	e.f64(q.invIn)
	e.f64(q.boundMax)
	e.f64(q.calErr)
	e.f64(q.gate)
	putRaw(e, q.bound)
	for i := range q.steps {
		st := &q.steps[i]
		switch st.kind {
		case stepDense:
			e.u32(0)
			e.u32(uint32(st.in))
			e.u32(uint32(st.out))
			fused := uint32(0)
			if st.fused {
				fused = 1
			}
			e.u32(uint32(st.act))
			e.u32(fused)
			e.u32(0)
			putRaw(e, st.wscale)
			putRaw(e, st.b)
			putRaw(e, st.panel.Words)
			putRaw(e, st.panel.ColCorr)
			if st.fused {
				putRaw(e, st.aF)
				putRaw(e, st.cF)
				putRaw(e, st.aFmc)
			} else {
				putRaw(e, st.sEff)
				putRaw(e, st.sEffMC)
			}
		case stepDropout:
			e.u32(1)
			e.align8()
			e.f64(st.p)
		}
	}
}

// ---------------------------------------------------------------------------
// decoder

type artDec struct {
	data []byte
	off  int
	err  error
}

func (d *artDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("nn: artifact: "+format, args...)
	}
}

func (d *artDec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.data)-d.off < n {
		d.fail("truncated (want %d bytes at offset %d of %d)", n, d.off, len(d.data))
		return false
	}
	return true
}

func (d *artDec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *artDec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *artDec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *artDec) align8() {
	if pad := (8 - d.off%8) % 8; pad > 0 {
		if d.need(pad) {
			d.off += pad
		}
	}
}

// dim reads a u32 that must be a positive dimension within the sanity cap.
func (d *artDec) dim(what string) int {
	v := d.u32()
	if d.err == nil && (v == 0 || v > artMaxDim) {
		d.fail("%s %d out of range", what, v)
	}
	return int(v)
}

// alias returns an n-element view over the next raw array of the buffer,
// reinterpreted in place when host endianness and alignment allow, copied
// otherwise. The bounds check runs before any allocation, so a hostile
// length field cannot force a huge allocation — the data has to actually
// be present.
func alias[T rawElem](d *artDec, n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	d.align8()
	if !d.need(n * size) {
		return nil
	}
	src := d.data[d.off : d.off+n*size]
	d.off += n * size
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&src[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&src[0])), n)
	}
	out := make([]T, n)
	leCopy(rawBytes(out), src, size)
	return out
}

type artSection struct {
	id      uint32
	payload []byte
}

// walkSections parses and integrity-checks the artifact envelope: magic,
// version, section headers, payload bounds and every per-section CRC.
func walkSections(data []byte) ([]artSection, error) {
	d := &artDec{data: data}
	if m := d.u32(); d.err == nil && m != artifactMagic {
		return nil, fmt.Errorf("nn: artifact: bad magic %#08x", m)
	}
	if v := d.u32(); d.err == nil && v != ArtifactVersion {
		return nil, fmt.Errorf("nn: artifact: unsupported version %d (have %d)", v, ArtifactVersion)
	}
	nsec := d.u32()
	d.u32() // reserved
	if d.err != nil {
		return nil, d.err
	}
	if nsec == 0 || nsec > artMaxSections {
		return nil, fmt.Errorf("nn: artifact: section count %d out of range", nsec)
	}
	secs := make([]artSection, 0, nsec)
	for i := uint32(0); i < nsec; i++ {
		id := d.u32()
		d.u32() // reserved
		plen := d.u64()
		crc := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		if plen > uint64(len(data)-d.off) {
			return nil, fmt.Errorf("nn: artifact: section %d truncated (claims %d bytes, %d remain)", id, plen, len(data)-d.off)
		}
		payload := data[d.off : d.off+int(plen)]
		if crc64.Checksum(payload, artCRCTable) != crc {
			return nil, fmt.Errorf("nn: artifact: section %d checksum mismatch", id)
		}
		d.off += int(plen)
		d.align8()
		if d.err != nil {
			return nil, d.err
		}
		secs = append(secs, artSection{id: id, payload: payload})
	}
	return secs, nil
}

// VerifyArtifact checks the artifact envelope and every section CRC
// without decoding any payload — the cheap integrity pass the registry
// runs before serving an mmap'd file.
func VerifyArtifact(data []byte) error {
	_, err := walkSections(data)
	return err
}

// DecodeArtifact parses and validates a serialized artifact. The programs
// alias data where the host allows (zero-copy over an mmap), so data must
// stay mapped and unmodified for the life of the returned programs. Every
// structural claim in the payload is validated — a corrupt or hostile
// artifact fails closed with an error, never a panic downstream.
func DecodeArtifact(data []byte) (*Artifact, error) {
	secs, err := walkSections(data)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	for _, s := range secs {
		switch s.id {
		case secMeta:
			a.Meta = s.payload
		case secModel:
			if a.Compiled, err = decodeModelPayload(s.payload); err != nil {
				return nil, err
			}
		case secQuant:
			if a.Quant, err = decodeQuantPayload(s.payload); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("nn: artifact: unknown section id %d", s.id)
		}
	}
	if a.Compiled == nil {
		return nil, fmt.Errorf("nn: artifact: missing model section")
	}
	if a.Quant != nil && (a.Quant.in != a.Compiled.in || a.Quant.out != a.Compiled.out) {
		return nil, fmt.Errorf("nn: artifact: quant dims %dx%d disagree with model %dx%d",
			a.Quant.in, a.Quant.out, a.Compiled.in, a.Compiled.out)
	}
	return a, nil
}

// decodeModelPayload is the one place model weights are decoded: it walks
// the header and the layer table, refuses any geometry the run loops could
// not index, and only then takes the slab — whose length the table fixes —
// out of the payload.
func decodeModelPayload(payload []byte) (*Compiled, error) {
	d := &artDec{data: payload}
	in := d.dim("model input width")
	out := d.dim("model output width")
	c := &Compiled{maxBatch: int(d.u32())}
	nl := d.u32()
	c.seedBase = d.u64()
	if d.err == nil && (nl == 0 || nl > artMaxLayers) {
		d.fail("layer count %d out of range", nl)
	}
	if d.err == nil && (c.maxBatch < 1 || c.maxBatch > artMaxBatch) {
		d.fail("max batch %d out of range", c.maxBatch)
	}
	if !d.need(int(nl) * 24) { // the table is there before steps are made for it
		return nil, d.err
	}
	c.steps = make([]compiledStep, nl)
	width, params := -1, uint64(0)
	for i := range c.steps {
		st := &c.steps[i]
		kind := d.u32()
		st.in, st.out, st.act = int(d.u32()), int(d.u32()), Activation(d.u32())
		st.p = d.f64()
		switch kind {
		case 0: // dense
			st.kind = stepDense
			if st.in < 1 || st.in > artMaxDim || st.out < 1 || st.out > artMaxDim {
				d.fail("layer %d dims %dx%d out of range", i, st.in, st.out)
			} else if st.act < Identity || st.act > Sigmoid {
				d.fail("layer %d activation %d out of range", i, st.act)
			} else if width < 0 && st.in != in {
				d.fail("first dense fan-in %d disagrees with header %d", st.in, in)
			} else if width >= 0 && st.in != width {
				d.fail("layer %d fan-in %d breaks width chain %d", i, st.in, width)
			}
			width = st.out
			params += uint64(st.in)*uint64(st.out) + uint64(st.out)
		case 1: // dropout
			st.kind = stepDropout
			if !(st.p >= 0 && st.p < 1) {
				d.fail("layer %d dropout P %v out of range [0, 1)", i, st.p)
			}
		default:
			d.fail("unknown layer kind %d", kind)
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if width < 0 {
		return nil, fmt.Errorf("nn: artifact: model has no dense layer")
	}
	if width != out {
		return nil, fmt.Errorf("nn: artifact: final width %d disagrees with header %d", width, out)
	}
	// The header and every row are 24 bytes: the slab starts 8-aligned.
	if params*8 != uint64(len(payload)-d.off) {
		return nil, fmt.Errorf("nn: artifact: layers hold %d parameters, slab is %d bytes", params, len(payload)-d.off)
	}
	c.slab = alias[float64](d, int(params))
	c.bind()
	return c, nil
}

func decodeQuantPayload(payload []byte) (*QuantCompiled, error) {
	d := &artDec{data: payload}
	q := &QuantCompiled{fs: -1}
	q.in = d.dim("quant input width")
	q.out = d.dim("quant output width")
	ns := d.u32()
	d.u32() // reserved
	q.seedBase = d.u64()
	q.inScale = d.f64()
	q.invIn = d.f64()
	q.boundMax = d.f64()
	q.calErr = d.f64()
	q.gate = d.f64()
	if d.err == nil && (ns == 0 || ns > artMaxLayers) {
		d.fail("quant step count %d out of range", ns)
	}
	if d.err != nil {
		return nil, d.err
	}
	q.bound = alias[float64](d, q.out)
	q.maxW = q.in
	luts := map[Activation]*tensor.QuantLUT{}
	width := q.in
	lastDense := -1
	for i := uint32(0); i < ns && d.err == nil; i++ {
		switch kind := d.u32(); kind {
		case 0: // dense
			in := d.dim("quant step fan-in")
			out := d.dim("quant step fan-out")
			act := Activation(d.u32())
			fused := d.u32()
			d.u32() // reserved
			if d.err != nil {
				break
			}
			if act < Identity || act > Sigmoid {
				d.fail("quant step activation %d out of range", act)
				break
			}
			if in != width {
				d.fail("quant step %d fan-in %d breaks width chain %d", i, in, width)
				break
			}
			st := quantStep{kind: stepDense, in: in, out: out, act: act, fused: fused == 1}
			st.wscale = alias[float64](d, out)
			st.b = alias[float64](d, out)
			groups := (out + 3) / 4
			st.panel = tensor.QuantPanel{
				In: in, Out: out,
				Words:   alias[uint64](d, groups*in),
				ColCorr: alias[int32](d, out),
			}
			if st.fused {
				lo, hi, ok := quantActDomain(act)
				if !ok {
					d.fail("quant step %d fused with unbounded activation %d", i, act)
					break
				}
				st.aF = alias[float64](d, out)
				st.cF = alias[float64](d, out)
				st.aFmc = alias[float64](d, out)
				// LUTs are rebuilt, not stored: BuildQuantLUT is
				// deterministic, so the rebuilt table is bit-identical to
				// the one the encoder's program used (the encoder is of
				// this ArtifactVersion, hence of this activation).
				lut := luts[act]
				if lut == nil {
					lut = tensor.BuildQuantLUT(act.applyAll, lo, hi)
					luts[act] = lut
				}
				st.lut = lut
			} else {
				st.sEff = alias[float64](d, out)
				st.sEffMC = alias[float64](d, out)
			}
			if d.err != nil {
				break
			}
			q.steps = append(q.steps, st)
			lastDense = len(q.steps) - 1
			width = out
			if out > q.maxW {
				q.maxW = out
			}
		case 1: // dropout
			d.align8()
			p := d.f64()
			if d.err != nil {
				break
			}
			if !(p >= 0 && p < 1) {
				d.fail("quant step dropout P %v out of range", p)
				break
			}
			if p > 0 && q.fs < 0 {
				q.fs = len(q.steps)
			}
			q.steps = append(q.steps, quantStep{kind: stepDropout, p: p})
		default:
			d.fail("unknown quant step kind %d", kind)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	// The run() contract: every dense step but the last is fused (writes
	// int8 activations), the last is non-fused (dequantizes into dst,
	// which is sized q.out). A payload violating that would index dst out
	// of bounds, so it fails closed here.
	if lastDense != len(q.steps)-1 {
		return nil, fmt.Errorf("nn: artifact: quant program must end on a dense step")
	}
	for i := range q.steps {
		st := &q.steps[i]
		if st.kind != stepDense {
			continue
		}
		if isLast := i == lastDense; st.fused == isLast {
			return nil, fmt.Errorf("nn: artifact: quant step %d fused flag inconsistent with position", i)
		}
	}
	if width != q.out {
		return nil, fmt.Errorf("nn: artifact: quant output width %d disagrees with header %d", width, q.out)
	}
	if len(q.bound) != q.out {
		return nil, fmt.Errorf("nn: artifact: quant bound length mismatch")
	}
	return q, nil
}
