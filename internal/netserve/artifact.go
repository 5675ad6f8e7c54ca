package netserve

import (
	"encoding/binary"
	"fmt"
)

// Artifact frames are the control plane of the dispatch tier: a router
// (or any follower) pulls a worker's registry generations over the wire
// with a fetch frame, and pushes artifacts into a freshly chosen worker
// with a push frame so a moved tenant warm-starts instead of retraining.
// They share the connection, id space and response demux with query
// frames but are deliberately off the perf-critical path: keys and
// payloads are copied, not pooled.
//
//	fetch body: ver(1) type(1) flags(1) klen(1) id(8) gen(8) key(klen)
//	data  body: ver(1) type(1) status(1) pad(1) id(8) gen(8) dlen(4) data(dlen)
//	push  body: ver(1) type(1) flags(1) klen(1) id(8) gen(8) dlen(4) key(klen) data(dlen)
//
// A fetch with gen 0 asks for the newest generation; the data frame
// reports the generation actually served. A fetch with FlagArtStat
// answers with the current generation and no payload. A push with
// FlagArtCold carries no payload: it asks the receiver to place the
// key's tenant cold (construct and pretrain) rather than install bytes.
// For StatusError the data payload is the error message; for
// StatusUnknownTenant (no such key/generation) it is empty.
const (
	frameArtFetch = 3 // router → worker: read one registry generation
	frameArtData  = 4 // worker → router: the artifact bytes or a status
	frameArtPush  = 5 // router → worker: install a generation / place cold

	artFetchHeaderLen = 20
	artDataHeaderLen  = 24
	artPushHeaderLen  = 24

	// DefaultMaxArtifactFrame caps artifact frame bodies (64 MiB) — far
	// above any real surrogate artifact, far below a memory-exhaustion
	// write. Applies on connections whose Config enables artifact hooks;
	// clients opt in by raising ClientConfig.MaxFrame.
	DefaultMaxArtifactFrame = 64 << 20
)

// Artifact frame flag bits.
const (
	// FlagArtStat on a fetch asks for the current generation number only
	// (dlen 0 in the answer) — the mirror loop's cheap poll.
	FlagArtStat = 1 << 0
	// FlagArtCold on a push carries no artifact: place the key's tenant
	// cold. gen and payload must be zero/empty.
	FlagArtCold = 1 << 1

	artFetchFlagsKnown = FlagArtStat
	artPushFlagsKnown  = FlagArtCold
)

// artFetch is a decoded artifact-fetch body. key aliases the frame
// buffer — valid only until the next read on the connection.
type artFetch struct {
	id    uint64
	gen   uint64
	flags byte
	key   []byte
}

// parseArtFetch decodes an artifact-fetch body with the same no-panic,
// no-alloc guarantees as parseRequest.
func parseArtFetch(body []byte) (artFetch, error) {
	var a artFetch
	if len(body) < artFetchHeaderLen {
		return a, errTruncated
	}
	if body[0] != ProtoVersion {
		return a, errBadVersion
	}
	if body[1] != frameArtFetch {
		return a, errBadType
	}
	if body[2]&^byte(artFetchFlagsKnown) != 0 {
		return a, errBadFlags
	}
	klen := int(body[3])
	if klen == 0 {
		return a, errBadGeom
	}
	a.flags = body[2]
	a.id = binary.BigEndian.Uint64(body[4:12])
	a.gen = binary.BigEndian.Uint64(body[12:20])
	if len(body) != artFetchHeaderLen+klen {
		if len(body) < artFetchHeaderLen+klen {
			return a, errTruncated
		}
		return a, errTrailing
	}
	a.key = body[artFetchHeaderLen:]
	return a, nil
}

// artData is a decoded artifact-data body. data aliases the frame
// buffer — valid only until the next read on the connection.
type artData struct {
	id     uint64
	gen    uint64
	status byte
	data   []byte
}

// parseArtData decodes an artifact-data body.
func parseArtData(body []byte) (artData, error) {
	var a artData
	if len(body) < artDataHeaderLen {
		return a, errTruncated
	}
	if body[0] != ProtoVersion {
		return a, errBadVersion
	}
	if body[1] != frameArtData {
		return a, errBadType
	}
	a.status = body[2]
	if a.status > StatusError {
		// Only defined statuses are wire-legal; anything else means the
		// stream is corrupt and the connection must die.
		return a, errBadGeom
	}
	a.id = binary.BigEndian.Uint64(body[4:12])
	a.gen = binary.BigEndian.Uint64(body[12:20])
	dlen := int(binary.BigEndian.Uint32(body[20:24]))
	if dlen < 0 {
		return a, errBadGeom
	}
	if len(body) != artDataHeaderLen+dlen {
		if len(body) < artDataHeaderLen+dlen {
			return a, errTruncated
		}
		return a, errTrailing
	}
	a.data = body[artDataHeaderLen:]
	return a, nil
}

// artPush is a decoded artifact-push body. key and data alias the frame
// buffer — valid only until the next read on the connection.
type artPush struct {
	id    uint64
	gen   uint64
	flags byte
	key   []byte
	data  []byte
}

// parseArtPush decodes an artifact-push body.
func parseArtPush(body []byte) (artPush, error) {
	var a artPush
	if len(body) < artPushHeaderLen {
		return a, errTruncated
	}
	if body[0] != ProtoVersion {
		return a, errBadVersion
	}
	if body[1] != frameArtPush {
		return a, errBadType
	}
	if body[2]&^byte(artPushFlagsKnown) != 0 {
		return a, errBadFlags
	}
	klen := int(body[3])
	if klen == 0 {
		return a, errBadGeom
	}
	a.flags = body[2]
	a.id = binary.BigEndian.Uint64(body[4:12])
	a.gen = binary.BigEndian.Uint64(body[12:20])
	dlen := int(binary.BigEndian.Uint32(body[20:24]))
	if dlen < 0 {
		return a, errBadGeom
	}
	if a.flags&FlagArtCold != 0 && (dlen != 0 || a.gen != 0) {
		return a, errBadGeom
	}
	want := artPushHeaderLen + klen + dlen
	if len(body) != want {
		if len(body) < want {
			return a, errTruncated
		}
		return a, errTrailing
	}
	a.key = body[artPushHeaderLen : artPushHeaderLen+klen]
	a.data = body[artPushHeaderLen+klen:]
	return a, nil
}

// appendArtFetch encodes an artifact-fetch frame (length prefix
// included) onto dst.
func appendArtFetch(dst []byte, id, gen uint64, flags byte, key string) ([]byte, error) {
	if len(key) == 0 || len(key) > MaxTenant {
		return dst, fmt.Errorf("netserve: artifact key %d bytes, protocol allows 1..%d", len(key), MaxTenant)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(artFetchHeaderLen+len(key)))
	dst = append(dst, ProtoVersion, frameArtFetch, flags, byte(len(key)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, gen)
	return append(dst, key...), nil
}

// appendArtDataHeader encodes an artifact-data frame whose length prefix
// covers dlen payload bytes the caller writes separately — the zero-copy
// splice path: the server writes the header from pooled scratch and the
// mmap'd artifact bytes straight after it, copying nothing.
func appendArtDataHeader(dst []byte, id, gen uint64, status byte, dlen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(artDataHeaderLen+dlen))
	dst = append(dst, ProtoVersion, frameArtData, status, 0)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, gen)
	return binary.BigEndian.AppendUint32(dst, uint32(dlen))
}

// appendArtData encodes a complete artifact-data frame (payload
// included) onto dst.
func appendArtData(dst []byte, id, gen uint64, status byte, data []byte) []byte {
	dst = appendArtDataHeader(dst, id, gen, status, len(data))
	return append(dst, data...)
}

// appendArtPush encodes an artifact-push frame (length prefix included)
// onto dst.
func appendArtPush(dst []byte, id, gen uint64, flags byte, key string, data []byte) ([]byte, error) {
	if len(key) == 0 || len(key) > MaxTenant {
		return dst, fmt.Errorf("netserve: artifact key %d bytes, protocol allows 1..%d", len(key), MaxTenant)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(artPushHeaderLen+len(key)+len(data)))
	dst = append(dst, ProtoVersion, frameArtPush, flags, byte(len(key)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, gen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	dst = append(dst, key...)
	return append(dst, data...), nil
}

// ArtifactStore serves artifact-fetch frames; *registry.Registry
// implements it. FetchArtifact returns the bytes and actual generation
// for key at gen (0 = newest); ok=false reports no such key/generation —
// a normal condition, answered on the wire as StatusUnknownTenant.
// Returned data may alias a long-lived mapping owned by the store; the
// server only writes it to the socket and drops the reference.
type ArtifactStore interface {
	FetchArtifact(key string, gen uint64) (data []byte, actual uint64, ok bool, err error)
	StatArtifact(key string) (gen uint64, ok bool)
}

// ArtifactSink accepts artifact-push frames. data is nil for a cold
// placement (FlagArtCold): the sink should create the key's tenant from
// scratch. The sink owns data; it is never reused by the server.
type ArtifactSink interface {
	InstallArtifact(key string, gen uint64, data []byte) error
}

// StatArtifact asks the server for key's current registry generation.
// ok=false means the key has no committed generation.
func (cn *Conn) StatArtifact(key string) (gen uint64, ok bool, err error) {
	_, gen, ok, err = cn.artCall(frameArtFetch, key, 0, FlagArtStat, nil)
	return gen, ok, err
}

// FetchArtifact pulls key's artifact at generation gen (0 = newest);
// ok=false means no such key/generation, and the returned bytes are
// caller-owned. ClientConfig.MaxFrame must admit artifact-sized responses
// (DefaultMaxArtifactFrame).
func (cn *Conn) FetchArtifact(key string, gen uint64) (data []byte, actual uint64, ok bool, err error) {
	return cn.artCall(frameArtFetch, key, gen, 0, nil)
}

// PushArtifact installs data as generation gen of key on the server. A
// nil data with gen 0 is a cold placement request: the server creates the
// key's tenant without an artifact. Installs are replay-idempotent, so a
// caller may retry one whose fate a lost connection left unknown.
func (cn *Conn) PushArtifact(key string, gen uint64, data []byte) error {
	var flags byte
	if data == nil {
		flags = FlagArtCold
	}
	_, _, _, err := cn.artCall(frameArtPush, key, gen, flags, data)
	return err
}

// artCall runs one artifact exchange (a fetch, a FlagArtStat poll, or a
// push of the bytes in push) through the connection's round-trip, sharing
// the id space and demux with queries. It answers with the payload copied
// off the read buffer, the generation served and the found bit. Artifact
// frames carry no deadline; the stall watch bounds the wait while the
// peer is dead, not while it is busy.
func (cn *Conn) artCall(op byte, key string, gen uint64, flags byte, push []byte) (data []byte, actual uint64, ok bool, err error) {
	p, id := cn.lease()
	if op == frameArtPush {
		p.buf, err = appendArtPush(p.buf[:0], id, gen, flags, key, push)
	} else {
		p.buf, err = appendArtFetch(p.buf[:0], id, gen, flags, key)
	}
	if err != nil {
		cn.release(p)
		return nil, 0, false, err
	}
	cn.arts.Add(1)
	cn.roundTrip(p, id, 0)
	cn.arts.Add(-1)
	data, actual, ok, err = p.artData, p.artGen, p.artOK, p.err
	cn.release(p)
	return data, actual, ok, err
}

// completeArt fills p from a decoded artifact-data response. The payload
// is copied out of the connection's read buffer.
func completeArt(p *pending, ad artData) {
	switch ad.status {
	case StatusOK:
		p.artGen = ad.gen
		p.artOK = true
		if len(ad.data) > 0 {
			p.artData = append([]byte(nil), ad.data...)
		}
	case StatusUnknownTenant:
		p.artOK = false
	case StatusError:
		p.err = &RemoteError{Msg: string(ad.data)}
	case StatusRetry:
		p.err = ErrRetry
	case StatusExpired:
		p.err = ErrExpired
	default:
		p.err = fmt.Errorf("netserve: unknown artifact status %d", ad.status)
	}
}
