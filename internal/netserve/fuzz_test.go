package netserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// The frame decoders sit on the network boundary: every byte they see is
// adversarial. The fuzzers assert the two hard guarantees — never panic,
// never allocate past the validated lengths — plus encode/decode
// round-trip fidelity on inputs that do parse.

func FuzzParseRequest(f *testing.F) {
	// Seeds: one valid frame, truncations of it, and header corruptions.
	valid, err := appendRequest(nil, "tenant-a", 42, 123456789, FlagNoStd, []float64{1.5, -2.25, 0})
	if err != nil {
		f.Fatal(err)
	}
	body := valid[lenPrefix:] // parseRequest sees the body, not the prefix
	f.Add(body)
	for cut := 0; cut < len(body); cut += 3 {
		f.Add(body[:cut])
	}
	for _, mut := range []int{0, 1, 2, 3, 4, 12, 20, 21} {
		if mut < len(body) {
			b := bytes.Clone(body)
			b[mut] ^= 0xff
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := parseRequest(data) // must not panic
		if err != nil {
			return
		}
		// Parsed fields must alias the input within bounds — the decoder
		// promises it never reads or retains past the body.
		if len(req.tenant) > MaxTenant || len(req.tenant) == 0 {
			t.Fatalf("tenant length %d out of range", len(req.tenant))
		}
		if req.nx <= 0 || req.nx > maxRowVals || len(req.x) != 8*req.nx {
			t.Fatalf("row geometry nx=%d len(x)=%d", req.nx, len(req.x))
		}
		// Round-trip: re-encoding the parsed request reproduces the body.
		x := decodeFloats(make([]float64, 0, req.nx), req.x)
		re, err := appendRequest(nil, string(req.tenant), req.id, req.deadline, req.flags, x)
		if err != nil {
			t.Fatalf("re-encode of parsed request failed: %v", err)
		}
		if !bytes.Equal(re[lenPrefix:], data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re[lenPrefix:])
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	ok := appendResponse(nil, 7, StatusOK, 1, []float64{3.5, 4.5}, []float64{0.1, 0.2}, "")
	rerr := appendResponse(nil, 8, StatusError, 0, nil, nil, "backend exploded")
	retry := appendResponse(nil, 9, StatusRetry, 0, nil, nil, "")
	for _, frame := range [][]byte{ok, rerr, retry} {
		body := frame[lenPrefix:]
		f.Add(body)
		for cut := 0; cut < len(body); cut += 2 {
			f.Add(body[:cut])
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := parseResponse(data) // must not panic
		if err != nil {
			return
		}
		if resp.ny < 0 || resp.ny > maxRowVals || len(resp.y) != 8*resp.ny {
			t.Fatalf("y geometry ny=%d len=%d", resp.ny, len(resp.y))
		}
		if resp.nstd < 0 || resp.nstd > maxRowVals || len(resp.std) != 8*resp.nstd {
			t.Fatalf("std geometry nstd=%d len=%d", resp.nstd, len(resp.std))
		}
		if resp.status == StatusOK {
			y := decodeFloats(make([]float64, 0, resp.ny), resp.y)
			var std []float64
			if resp.nstd > 0 {
				std = decodeFloats(make([]float64, 0, resp.nstd), resp.std)
			}
			re := appendResponse(nil, resp.id, resp.status, resp.src, y, std, "")
			if !bytes.Equal(re[lenPrefix:], data) {
				t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re[lenPrefix:])
			}
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	valid, _ := appendRequest(nil, "t", 1, 0, 0, []float64{1})
	f.Add(valid)
	f.Add(valid[:3])                               // truncated prefix
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})    // oversized length
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})          // zero length
	f.Add([]byte{0x00, 0x00, 0x00, 0x08, 1, 2, 3}) // body shorter than declared
	f.Add(append(bytes.Clone(valid), valid...))    // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		buf := make([]byte, 0, 64)
		for i := 0; i < 4; i++ { // drain a few frames, never panic
			out, err := ReadRawFrame(r, buf, DefaultMaxFrame)
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					err != errEmptyFrame && err != errOversized {
					t.Fatalf("unexpected ReadRawFrame error class: %v", err)
				}
				return
			}
			body := out[lenPrefix:]
			if len(body) == 0 || len(body) > DefaultMaxFrame {
				t.Fatalf("ReadRawFrame returned a %d-byte body", len(body))
			}
			if len(data) >= lenPrefix {
				if declared := int(binary.BigEndian.Uint32(data[:lenPrefix])); i == 0 && len(body) != declared {
					t.Fatalf("first frame length %d, declared %d", len(body), declared)
				}
			}
			buf = out
		}
	})
}

// FuzzClientResponse drives the full client read path — framing, parse,
// waiter completion, teardown — with an adversarial server. The
// guarantees: no panic, no hang (the deadline grace bounds every wait),
// and the in-flight query always resolves.
func FuzzClientResponse(f *testing.F) {
	ok := appendResponse(nil, 1, StatusOK, 0, []float64{1, 2}, []float64{0.1, 0.2}, "")
	f.Add(ok)
	f.Add(ok[:len(ok)/2])
	f.Add(appendResponse(nil, 1, StatusError, 0, nil, nil, "boom"))
	f.Add(appendResponse(nil, 99, StatusOK, 0, []float64{3}, nil, "")) // nobody waiting
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversized length prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := netPipe()
		var cfg ClientConfig
		cfg.fill()
		cl := newConn(a, cfg)
		defer cl.Close()
		go func() {
			br := bufio.NewReader(b)
			frame := make([]byte, 0, 256)
			ReadRawFrame(br, frame, DefaultMaxFrame) // consume the request
			b.Write(data)
			b.Close()
		}()
		y := make([]float64, 4)
		std := make([]float64, 4)
		// Whatever the server answered — valid, truncated, corrupted or
		// nothing — the query must resolve within the deadline grace.
		cl.QueryInto("m", []float64{1}, y, std, time.Now().Add(50*time.Millisecond))
	})
}

func netPipe() (net.Conn, net.Conn) { return net.Pipe() }

// FuzzArtifactFrames fuzzes the artifact control-plane decoders — the
// frames a router's mirror loop and placement pushes ride on. Beyond
// never panicking, a body that parses must have internally consistent
// geometry (key/data exactly fill the body) and a wire-legal status:
// an undefined status byte must kill the frame, not flow into the
// response demux.
func FuzzArtifactFrames(f *testing.F) {
	af, err := appendArtFetch(nil, 7, 3, FlagArtStat, "tenant/shard-0")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(af[lenPrefix:])
	f.Add(appendArtData(nil, 7, 3, StatusOK, []byte("payload"))[lenPrefix:])
	f.Add(appendArtData(nil, 7, 0, StatusUnknownTenant, nil)[lenPrefix:])
	ap, err := appendArtPush(nil, 7, 3, 0, "tenant/shard-1", []byte("weights"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ap[lenPrefix:])
	cold, err := appendArtPush(nil, 9, 0, FlagArtCold, "tenant", nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cold[lenPrefix:])
	for cut := 0; cut < len(ap)-lenPrefix; cut += 5 {
		f.Add(ap[lenPrefix : lenPrefix+cut])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := parseArtFetch(data); err == nil {
			if len(a.key) == 0 || len(a.key) != len(data)-artFetchHeaderLen {
				t.Fatalf("fetch key %d bytes from a %d-byte body", len(a.key), len(data))
			}
		}
		if a, err := parseArtData(data); err == nil {
			if a.status > StatusError {
				t.Fatalf("undefined status %d accepted", a.status)
			}
			if len(a.data) != len(data)-artDataHeaderLen {
				t.Fatalf("data %d bytes from a %d-byte body", len(a.data), len(data))
			}
		}
		if a, err := parseArtPush(data); err == nil {
			if len(a.key) == 0 || artPushHeaderLen+len(a.key)+len(a.data) != len(data) {
				t.Fatalf("push key %d + data %d bytes from a %d-byte body",
					len(a.key), len(a.data), len(data))
			}
			if a.flags&FlagArtCold != 0 && (len(a.data) != 0 || a.gen != 0) {
				t.Fatal("cold push accepted with payload or generation")
			}
		}
	})
}
