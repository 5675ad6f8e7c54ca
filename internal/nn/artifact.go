package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"unsafe"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// This file implements the serialized artifact format behind the surrogate
// registry: one self-describing binary blob that carries a trained Network
// together with its Compiled and QuantCompiled programs — panel layouts,
// quant scales, error bounds and all — so a process that pulls an artifact
// serves immediately, with zero retraining, recompilation or recalibration.
//
// Layout (all integers little-endian, every section payload 8-byte aligned
// in the file):
//
//	header:  magic "LESA" (u32) | version (u32) | section count (u32) | reserved (u32)
//	section: id (u32) | reserved (u32) | payload len (u64) | CRC64-ECMA of payload (u64)
//	         payload, zero-padded to a multiple of 8 bytes
//
// Per-section CRCs make torn or bit-flipped artifacts detectable without
// decoding; VerifyArtifact walks the envelope and checks every CRC, which
// is what the registry runs against an mmap'd file before serving it.
// Float and word arrays are stored raw, so on little-endian hosts the
// decoder aliases them straight out of the (mmap'd) buffer instead of
// copying — the Compiled/QuantCompiled programs are immutable by contract,
// which is what makes the zero-copy view safe. The mutable Network is
// always deep-copied.

const (
	artifactMagic = 0x4153454c // "LESA" little-endian
	// ArtifactVersion is the current artifact format version; decoders
	// reject any other (fail closed on version skew). Version 2 has
	// version 1's layout: it marks programs whose activations, and so the
	// int8 lookup tables a decoder rebuilds, are tensor.Tanh/Sigmoid. A
	// version-1 table was sampled from math.Tanh and can differ in a knot's
	// last bit, so a version-1 artifact is refused (and refitted) rather
	// than served with tables its encoder never had.
	ArtifactVersion = 2

	secMeta     = 1 // opaque caller metadata (the registry stores surrogate config here)
	secNet      = 2 // trainable Network: layer specs + weights
	secCompiled = 3 // float compiled program
	secQuant    = 4 // int8 quantized program

	artMaxSections = 64
	artMaxLayers   = 1024
	artMaxDim      = 1 << 20
)

var artCRCTable = crc64.MakeTable(crc64.ECMA)

// hostLittle reports whether this machine stores integers little-endian —
// the precondition for aliasing raw arrays out of the artifact buffer.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Artifact bundles everything the registry persists for one surrogate
// generation. Net is required; Compiled, Quant and Meta are optional.
type Artifact struct {
	// Meta is an opaque caller payload (config, scalers, baselines).
	Meta []byte
	// Net is the trainable network (always deep-copied on decode).
	Net *Network
	// Compiled is the float serving program, nil if absent.
	Compiled *Compiled
	// Quant is the int8 serving program, nil if absent.
	Quant *QuantCompiled
}

// Dims returns the network's input and output widths (the first dense
// layer's fan-in and the last dense layer's fan-out); ok is false when
// the network has no dense layer.
func (n *Network) Dims() (in, out int, ok bool) {
	for _, l := range n.Layers {
		if d, isDense := l.(*Dense); isDense {
			if !ok {
				in = d.In
				ok = true
			}
			out = d.Out
		}
	}
	return in, out, ok
}

// ---------------------------------------------------------------------------
// encoder

// artEnc writes into buf at off. With a nil buf it only advances off: the
// encoder is run once that way to size the artifact, so the buffer is made
// once at its final length and every section is encoded where it lies.
type artEnc struct {
	buf  []byte
	off  int
	nsec uint32 // sections written
	err  error
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

func (e *artEnc) floats(v []float64) {
	e.align8()
	for _, x := range v {
		e.f64(x)
	}
}

func (e *artEnc) words(v []uint64) {
	e.align8()
	for _, x := range v {
		e.u64(x)
	}
}

func (e *artEnc) i32s(v []int32) {
	e.align8()
	for _, x := range v {
		e.u32(uint32(x))
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
	if a.Net == nil {
		return nil, fmt.Errorf("nn: artifact needs a network")
	}
	var e artEnc
	e.artifact(a) // sizing pass
	if e.err != nil {
		return nil, e.err
	}
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
	e.section(secNet, func() { e.net(a.Net) })
	if a.Compiled != nil {
		e.section(secCompiled, func() { e.compiled(a.Compiled) })
	}
	if a.Quant != nil {
		e.section(secQuant, func() { e.quant(a.Quant) })
	}
	binary.LittleEndian.PutUint32(count, e.nsec)
}

func (e *artEnc) net(n *Network) {
	e.u32(uint32(len(n.Layers)))
	for _, l := range n.Layers {
		switch ly := l.(type) {
		case *Dense:
			e.u32(0) // kind: dense
			e.u32(uint32(ly.In))
			e.u32(uint32(ly.Out))
			e.u32(uint32(ly.Act))
			e.floats(ly.W.Data)
			e.floats(ly.B.Data)
		case *Dropout:
			e.u32(1) // kind: dropout
			e.align8()
			e.f64(ly.P)
		default:
			e.err = fmt.Errorf("nn: cannot serialize layer type %T", l)
		}
	}
}

func (e *artEnc) compiled(c *Compiled) {
	e.u32(uint32(c.in))
	e.u32(uint32(c.out))
	e.u32(uint32(c.maxBatch))
	e.u32(uint32(len(c.steps)))
	e.u64(c.seedBase)
	for i := range c.steps {
		st := &c.steps[i]
		switch st.kind {
		case stepDense:
			e.u32(0)
			e.u32(uint32(st.in))
			e.u32(uint32(st.out))
			e.u32(uint32(st.act))
			e.floats(st.w)
			e.floats(st.b)
		case stepDropout:
			e.u32(1)
			e.align8()
			e.f64(st.p)
		}
	}
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
	e.floats(q.bound)
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
			e.floats(st.wscale)
			e.floats(st.b)
			e.words(st.panel.Words)
			e.i32s(st.panel.ColCorr)
			if st.fused {
				e.floats(st.aF)
				e.floats(st.cF)
				e.floats(st.aFmc)
			} else {
				e.floats(st.sEff)
				e.floats(st.sEffMC)
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

// alias returns an n-element view over the next n*size bytes of the
// buffer, reinterpreted in place when host endianness and alignment
// allow, copied element-wise otherwise. The bounds check runs before any
// allocation, so a hostile length field cannot force a huge allocation —
// the data has to actually be present.
func (d *artDec) floats(n int) []float64 {
	d.align8()
	if !d.need(n * 8) {
		return nil
	}
	start := d.off
	d.off += n * 8
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&d.data[start]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&d.data[start])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.data[start+i*8:]))
	}
	return out
}

func (d *artDec) words(n int) []uint64 {
	d.align8()
	if !d.need(n * 8) {
		return nil
	}
	start := d.off
	d.off += n * 8
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&d.data[start]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&d.data[start])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.data[start+i*8:])
	}
	return out
}

func (d *artDec) i32s(n int) []int32 {
	d.align8()
	if !d.need(n * 4) {
		return nil
	}
	start := d.off
	d.off += n * 4
	if n == 0 {
		return nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&d.data[start]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&d.data[start])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.data[start+i*4:]))
	}
	return out
}

// floatsCopy is the always-copy variant for mutable consumers (Network
// weights must not alias an mmap'd read-only buffer).
func (d *artDec) floatsCopy(n int) []float64 {
	v := d.floats(n)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	copy(out, v)
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

// DecodeArtifact parses and validates a serialized artifact. The Compiled
// and QuantCompiled programs alias data where the host allows (zero-copy
// over an mmap), so data must stay mapped and unmodified for the life of
// the returned programs; the Network is always an independent copy. rng
// powers dropout streams on the restored network. Every structural claim
// in the payload is validated — a corrupt or hostile artifact fails
// closed with an error, never a panic downstream.
func DecodeArtifact(data []byte, rng *xrand.Rand) (*Artifact, error) {
	secs, err := walkSections(data)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	for _, s := range secs {
		switch s.id {
		case secMeta:
			a.Meta = s.payload
		case secNet:
			if a.Net, err = decodeNetPayload(s.payload, rng); err != nil {
				return nil, err
			}
		case secCompiled:
			if a.Compiled, err = decodeCompiledPayload(s.payload); err != nil {
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
	if a.Net == nil {
		return nil, fmt.Errorf("nn: artifact: missing network section")
	}
	if a.Compiled != nil {
		nin, nout, _ := a.Net.Dims()
		if a.Compiled.in != nin || a.Compiled.out != nout {
			return nil, fmt.Errorf("nn: artifact: compiled dims %dx%d disagree with network %dx%d",
				a.Compiled.in, a.Compiled.out, nin, nout)
		}
	}
	if a.Quant != nil && a.Compiled != nil {
		if a.Quant.in != a.Compiled.in || a.Quant.out != a.Compiled.out {
			return nil, fmt.Errorf("nn: artifact: quant dims %dx%d disagree with compiled %dx%d",
				a.Quant.in, a.Quant.out, a.Compiled.in, a.Compiled.out)
		}
	}
	return a, nil
}

func decodeNetPayload(payload []byte, rng *xrand.Rand) (*Network, error) {
	d := &artDec{data: payload}
	nl := d.u32()
	if d.err == nil && (nl == 0 || nl > artMaxLayers) {
		d.fail("layer count %d out of range", nl)
	}
	var specs []layerSpec
	for i := uint32(0); i < nl && d.err == nil; i++ {
		switch kind := d.u32(); kind {
		case 0: // dense
			in := d.dim("dense fan-in")
			out := d.dim("dense fan-out")
			act := Activation(d.u32())
			if d.err != nil {
				break
			}
			specs = append(specs, layerSpec{
				Kind: "dense", In: in, Out: out, Act: act,
				W: d.floatsCopy(in * out),
				B: d.floatsCopy(out),
			})
		case 1: // dropout
			d.align8()
			specs = append(specs, layerSpec{Kind: "dropout", P: d.f64()})
		default:
			d.fail("unknown layer kind %d", kind)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return buildNetwork(specs, rng)
}

func decodeCompiledPayload(payload []byte) (*Compiled, error) {
	d := &artDec{data: payload}
	c := &Compiled{fs: -1}
	c.in = d.dim("compiled input width")
	c.out = d.dim("compiled output width")
	c.maxBatch = int(d.u32())
	ns := d.u32()
	c.seedBase = d.u64()
	if d.err == nil && (ns == 0 || ns > artMaxLayers) {
		d.fail("compiled step count %d out of range", ns)
	}
	if d.err == nil && (c.maxBatch < 1 || c.maxBatch > 1<<16) {
		d.fail("compiled max batch %d out of range", c.maxBatch)
	}
	width := -1
	for i := uint32(0); i < ns && d.err == nil; i++ {
		switch kind := d.u32(); kind {
		case 0: // dense
			in := d.dim("step fan-in")
			out := d.dim("step fan-out")
			act := Activation(d.u32())
			if d.err != nil {
				break
			}
			if act < Identity || act > Sigmoid {
				d.fail("step activation %d out of range", act)
				break
			}
			if width >= 0 && width != in {
				d.fail("step %d fan-in %d breaks width chain %d", i, in, width)
				break
			}
			w := d.floats(in * out)
			b := d.floats(out)
			if d.err != nil {
				break
			}
			c.steps = append(c.steps, compiledStep{
				kind: stepDense, in: in, out: out,
				w: w, wm: &tensor.Matrix{Rows: in, Cols: out, Data: w},
				b: b, act: act,
			})
			if width < 0 {
				if in != c.in {
					d.fail("first dense fan-in %d disagrees with header %d", in, c.in)
					break
				}
				if in > c.maxW {
					c.maxW = in
				}
			}
			width = out
			if width > c.maxW {
				c.maxW = width
			}
		case 1: // dropout
			d.align8()
			p := d.f64()
			if d.err != nil {
				break
			}
			if !(p >= 0 && p < 1) {
				d.fail("step dropout P %v out of range", p)
				break
			}
			if p > 0 && c.fs < 0 {
				c.fs = len(c.steps)
			}
			c.steps = append(c.steps, compiledStep{kind: stepDropout, p: p})
		default:
			d.fail("unknown step kind %d", kind)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if width < 0 {
		return nil, fmt.Errorf("nn: artifact: compiled program has no dense step")
	}
	if width != c.out {
		return nil, fmt.Errorf("nn: artifact: compiled output width %d disagrees with header %d", width, c.out)
	}
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
	q.bound = d.floats(q.out)
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
			st.wscale = d.floats(out)
			st.b = d.floats(out)
			groups := (out + 3) / 4
			st.panel = tensor.QuantPanel{
				In: in, Out: out,
				Words:   d.words(groups * in),
				ColCorr: d.i32s(out),
			}
			if st.fused {
				lo, hi, ok := quantActDomain(act)
				if !ok {
					d.fail("quant step %d fused with unbounded activation %d", i, act)
					break
				}
				st.aF = d.floats(out)
				st.cF = d.floats(out)
				st.aFmc = d.floats(out)
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
				st.sEff = d.floats(out)
				st.sEffMC = d.floats(out)
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
