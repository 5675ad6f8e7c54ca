// Package netserve puts a wire on the fleet: a TCP server and client
// speaking a length-prefixed binary protocol whose server-side read loop
// decodes straight into pooled row buffers and feeds the requests it has
// buffered for one tenant to fleet.QueryRows as one burst — so the
// per-tenant coalescers gather micro-batches *across connections*, not
// just across goroutines of one process.
//
// The protocol is deliberately minimal: one frame type per direction,
// fixed headers, big-endian integers, raw IEEE-754 float64 rows. A frame
// is a uint32 length prefix followed by the body:
//
//	request  body: ver(1) type(1) flags(1) tlen(1) id(8) deadline(8)
//	               xlen(2) tenant(tlen) x(8·xlen)
//	response body: ver(1) type(1) status(1) src(1) id(8)
//	               ylen(2) stdlen(2) y(8·ylen) std(8·stdlen)
//
// deadline is an absolute unix-nanosecond wall-clock instant (0 = none)
// carried from the caller into the server's admission control: a frame
// that spent its budget queueing is shed with StatusExpired, and an
// admission-window shed answers StatusRetry — a request is never silently
// dropped. For a non-OK status the response carries no rows; StatusError
// reuses the ylen field as the byte length of a UTF-8 message payload.
//
// The perf contract of the hot path is zero steady-state heap
// allocations on the server side: frame scratch, row buffers and
// response staging are pooled per request context, tenant names are
// interned per connection, and responses completed by one coalesced
// batch share a writev-style buffered flush.
package netserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Protocol constants.
const (
	// ProtoVersion is the wire format version; both frame types carry it
	// as their first body byte.
	ProtoVersion = 1

	// Frame types.
	frameQuery  = 1 // client → server: one input row for one tenant
	frameResult = 2 // server → client: the row's answer or a status

	// reqHeaderLen and respHeaderLen are the fixed body-header sizes
	// (excluding the uint32 length prefix and the variable payload).
	reqHeaderLen  = 22
	respHeaderLen = 16

	// lenPrefix is the frame length prefix size.
	lenPrefix = 4
)

// Request flag bits.
const (
	// FlagNoStd asks the server not to return the per-output uncertainty
	// row even when the surrogate produced one (halves response payload
	// for callers that only want point predictions).
	FlagNoStd = 1 << 0

	flagsKnown = FlagNoStd
)

// Response status codes.
const (
	// StatusOK carries the answer rows.
	StatusOK = 0
	// StatusRetry reports an admission shed (fleet.ErrOverloaded): the
	// tenant's bounded in-flight window was full and the caller should
	// back off and retry.
	StatusRetry = 1
	// StatusExpired reports a deadline shed: the request's deadline had
	// already passed when the server was ready to admit it.
	StatusExpired = 2
	// StatusUnknownTenant reports that no registered tenant matched the
	// request's tenant name.
	StatusUnknownTenant = 3
	// StatusError carries a backend/serving error; the response payload
	// is the error message (ylen = message byte length).
	StatusError = 4
)

// Frame-size limits. MaxTenant is a hard protocol bound (tlen is one
// byte); DefaultMaxFrame caps every query frame a server or router reads
// and the default a ClientConfig reads responses under.
const (
	MaxTenant       = 255
	DefaultMaxFrame = 64 << 10
	maxRowVals      = 1 << 14 // per-frame float64 cap within any MaxFrame
)

// Codec errors. Any of them on a live connection means the stream can no
// longer be trusted and the connection is torn down.
var (
	errBadVersion = errors.New("netserve: unknown protocol version")
	errBadType    = errors.New("netserve: unexpected frame type")
	errBadFlags   = errors.New("netserve: unknown flag bits set")
	errTruncated  = errors.New("netserve: truncated frame body")
	errTrailing   = errors.New("netserve: trailing bytes after frame payload")
	errOversized  = errors.New("netserve: frame exceeds size limit")
	errEmptyFrame = errors.New("netserve: zero-length frame")
	errBadGeom    = errors.New("netserve: empty or oversized tenant/row field")
)

// request is a decoded query frame. tenant and x alias the frame buffer —
// valid only until the next read on the connection.
type request struct {
	id       uint64
	deadline int64 // unix nanos, 0 = none
	flags    byte
	tenant   []byte
	x        []byte // raw big-endian float64s, 8·nx bytes
	nx       int
}

// parseRequest decodes a query-frame body. It never allocates and never
// panics on adversarial input: every length is validated against the
// actual body size before any slicing.
func parseRequest(body []byte) (request, error) {
	var r request
	if len(body) < reqHeaderLen {
		return r, errTruncated
	}
	if body[0] != ProtoVersion {
		return r, errBadVersion
	}
	if body[1] != frameQuery {
		return r, errBadType
	}
	if body[2]&^byte(flagsKnown) != 0 {
		return r, errBadFlags
	}
	tlen := int(body[3])
	r.flags = body[2]
	r.id = binary.BigEndian.Uint64(body[4:12])
	r.deadline = int64(binary.BigEndian.Uint64(body[12:20]))
	r.nx = int(binary.BigEndian.Uint16(body[20:22]))
	if tlen == 0 || r.nx == 0 || r.nx > maxRowVals {
		return r, errBadGeom
	}
	want := reqHeaderLen + tlen + 8*r.nx
	if len(body) < want {
		return r, errTruncated
	}
	if len(body) > want {
		return r, errTrailing
	}
	r.tenant = body[reqHeaderLen : reqHeaderLen+tlen]
	r.x = body[reqHeaderLen+tlen:]
	return r, nil
}

// response is a decoded result frame. y, std and msg alias the frame
// buffer — valid only until the next read on the connection.
type response struct {
	id     uint64
	status byte
	src    byte
	y      []byte // raw big-endian float64s, 8·ny bytes
	std    []byte
	msg    []byte // StatusError message payload
	ny     int
	nstd   int
}

// parseResponse decodes a result-frame body with the same no-panic,
// no-alloc guarantees as parseRequest.
func parseResponse(body []byte) (response, error) {
	var r response
	if len(body) < respHeaderLen {
		return r, errTruncated
	}
	if body[0] != ProtoVersion {
		return r, errBadVersion
	}
	if body[1] != frameResult {
		return r, errBadType
	}
	r.status = body[2]
	if r.status > StatusError {
		// Only defined statuses are wire-legal; a stray status byte means
		// corruption, and the stream can no longer be trusted.
		return r, errBadGeom
	}
	r.src = body[3]
	r.id = binary.BigEndian.Uint64(body[4:12])
	r.ny = int(binary.BigEndian.Uint16(body[12:14]))
	r.nstd = int(binary.BigEndian.Uint16(body[14:16]))
	if r.status == StatusError {
		// The ylen field is the message byte length; no rows follow.
		want := respHeaderLen + r.ny
		if r.nstd != 0 {
			return r, errTrailing
		}
		if len(body) < want {
			return r, errTruncated
		}
		if len(body) > want {
			return r, errTrailing
		}
		r.msg = body[respHeaderLen:]
		r.ny = 0
		return r, nil
	}
	if r.status != StatusOK && (r.ny != 0 || r.nstd != 0) {
		return r, errTrailing
	}
	if r.ny > maxRowVals || r.nstd > maxRowVals {
		return r, errBadGeom
	}
	want := respHeaderLen + 8*r.ny + 8*r.nstd
	if len(body) < want {
		return r, errTruncated
	}
	if len(body) > want {
		return r, errTrailing
	}
	r.y = body[respHeaderLen : respHeaderLen+8*r.ny]
	r.std = body[respHeaderLen+8*r.ny:]
	return r, nil
}

// appendRequest encodes a query frame (length prefix included) onto dst.
func appendRequest(dst []byte, tenant string, id uint64, deadline int64, flags byte, x []float64) ([]byte, error) {
	if len(tenant) > MaxTenant {
		return dst, fmt.Errorf("netserve: tenant name %d bytes, protocol caps at %d", len(tenant), MaxTenant)
	}
	if len(x) > maxRowVals {
		return dst, fmt.Errorf("netserve: row has %d values, protocol caps at %d", len(x), maxRowVals)
	}
	body := reqHeaderLen + len(tenant) + 8*len(x)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, ProtoVersion, frameQuery, flags, byte(len(tenant)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(deadline))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(x)))
	dst = append(dst, tenant...)
	return appendFloats(dst, x), nil
}

// appendResponse encodes a result frame (length prefix included) onto
// dst. For StatusError, msg is the payload and y/std must be nil; for the
// other non-OK statuses all three must be empty.
func appendResponse(dst []byte, id uint64, status, src byte, y, std []float64, msg string) []byte {
	ny, nstd := len(y), len(std)
	if status == StatusError {
		ny, nstd = len(msg), 0
	}
	body := respHeaderLen + 8*len(y) + 8*len(std) + len(msg)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, ProtoVersion, frameResult, status, src)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint16(dst, uint16(ny))
	dst = binary.BigEndian.AppendUint16(dst, uint16(nstd))
	dst = appendFloats(dst, y)
	dst = appendFloats(dst, std)
	return append(dst, msg...)
}

// appendFloats encodes xs as big-endian IEEE-754 bit patterns.
func appendFloats(dst []byte, xs []float64) []byte {
	for _, v := range xs {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeFloats appends the float64s packed in raw (8 bytes each, as
// validated by the frame parsers) onto dst, reusing its capacity.
func decodeFloats(dst []float64, raw []byte) []float64 {
	for ; len(raw) >= 8; raw = raw[8:] {
		dst = append(dst, math.Float64frombits(binary.BigEndian.Uint64(raw)))
	}
	return dst
}
