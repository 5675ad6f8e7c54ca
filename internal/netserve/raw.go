package netserve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// Raw-frame helpers: the one frame reader every peer on the wire uses
// (server, client and the frame-splicing router, internal/router) reads a
// whole frame with its length prefix intact; a forwarder validates and
// patches the two words it touches (tenant is read, ids are rewritten)
// and passes the payload through byte-identical. Nothing here decodes
// rows — that is the point.

// ErrRawFrame reports a frame a forwarder cannot route: truncated,
// wrong version, malformed geometry.
var ErrRawFrame = errors.New("netserve: malformed raw frame")

// ReadRawFrame reads one length-prefixed frame into buf (grown as
// needed) and returns it with the prefix still in place — ready to be
// spliced onto another connection after id patching, or parsed from
// frame[lenPrefix:]. Callers keep the returned slice whole for the next
// read, so its capacity never shrinks. A frame whose body is longer than
// max fails with an oversize error before any payload is read, bounding
// what a malicious or corrupt peer can make a reader buffer.
func ReadRawFrame(br *bufio.Reader, buf []byte, max int) ([]byte, error) {
	// Peek instead of io.ReadFull into a local array: the array would
	// escape through the io.Reader interface and cost one heap allocation
	// per frame.
	hdr, err := br.Peek(lenPrefix)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 {
		return buf, errEmptyFrame
	}
	if n > max {
		return buf, errOversized
	}
	total := lenPrefix + n
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// RawQueryMeta validates a prefixed query frame end to end (same checks
// as the server's own parser — a forwarder must not splice a frame the
// worker would kill the connection over) and returns the fields a
// router needs: the tenant bytes (aliasing frame) and the request id.
func RawQueryMeta(frame []byte) (tenant []byte, id uint64, err error) {
	if len(frame) < lenPrefix {
		return nil, 0, ErrRawFrame
	}
	if int(binary.BigEndian.Uint32(frame[:lenPrefix])) != len(frame)-lenPrefix {
		return nil, 0, ErrRawFrame
	}
	req, perr := parseRequest(frame[lenPrefix:])
	if perr != nil {
		return nil, 0, ErrRawFrame
	}
	return req.tenant, req.id, nil
}

// SetRawQueryID rewrites the request id of a validated prefixed query
// frame in place.
func SetRawQueryID(frame []byte, id uint64) {
	binary.BigEndian.PutUint64(frame[lenPrefix+4:lenPrefix+12], id)
}

// RawResponseID returns the id of a prefixed result or artifact-data
// frame; ok is false for frames too short to carry one. Both response
// layouts keep the id at the same offset by design.
func RawResponseID(frame []byte) (uint64, bool) {
	if len(frame) < lenPrefix+12 {
		return 0, false
	}
	return binary.BigEndian.Uint64(frame[lenPrefix+4 : lenPrefix+12]), true
}

// SetRawResponseID rewrites a response frame's id in place.
func SetRawResponseID(frame []byte, id uint64) {
	binary.BigEndian.PutUint64(frame[lenPrefix+4:lenPrefix+12], id)
}

// RawFrameBuffered reports whether a complete frame (of body length at
// most max) is already buffered on br — whether a reader can gather one
// more frame into the current burst without blocking. Malformed prefixes
// return false so the blocking read surfaces the framing error.
func RawFrameBuffered(br *bufio.Reader, max int) bool {
	n := br.Buffered()
	if n < lenPrefix {
		return false
	}
	hdr, _ := br.Peek(lenPrefix)
	blen := int(binary.BigEndian.Uint32(hdr))
	if blen <= 0 || blen > max {
		return false
	}
	return n >= lenPrefix+blen
}

// AppendStatusFrame encodes a rowless result frame carrying status for
// id — the router's explicit Retry/shed answer during placement moves
// and worker outages, upholding the never-silently-dropped contract.
func AppendStatusFrame(dst []byte, id uint64, status byte) []byte {
	return appendResponse(dst, id, status, 0, nil, nil, "")
}
