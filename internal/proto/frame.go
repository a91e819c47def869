// Package proto is the out-of-process target protocol: the wire format and
// the two endpoints that let COMPI drive a program it did not compile.
//
// COMPI proper instruments arbitrary C MPI programs, runs them as separate
// processes under mpiexec, and reads every process's log back after each
// execution. This package is that process boundary for the reproduction:
// length-prefixed frames over a pair of pipes (the target's stdin/stdout),
// with the engine side and the target side each holding one half.
//
//   - The wire format. Every frame is a 4-byte big-endian payload length,
//     then the payload (EncodeRaw/ReadRaw); readers refuse zero-length and
//     oversized frames before allocating anything. The session-opening
//     handshake is one JSON object (Frame, WriteFrame/ReadFrame), because
//     its manifest is the `compi targets --json` contract. The per-iteration
//     frames are binary (iteration.go).
//   - Driver: the engine side. It launches the target binary, reads the
//     handshake (the target announces its target.Manifest), and implements
//     core.Backend: each engine iteration writes one assign frame and reads
//     back exactly nprocs rank frames itself, under a read deadline.
//     Exit-code capture, the frame checks and the deadline translate a
//     crashed, garbage-spewing, or wedged target into the same error records
//     the in-process MPI runtime produces.
//   - Serve: the target side. Any Go binary that links a registered
//     target.Program (or builds one with internal/target's Builder) calls
//     Serve(os.Stdin, os.Stdout, prog) to become drivable; cmd/compi-target
//     is the reference binary exposing the built-in targets.
//
// Session lifecycle, from the driver's point of view:
//
//	start target process
//	<- handshake {proto, manifest}                        JSON
//	repeat per engine iteration:
//	    -> assign {iter, nprocs, focus, seed, ..., inputs, params, match order}
//	    <- rank {status, exit, msg, log}                  one per rank, in rank order
//	close stdin; target exits 0
//
// The target side executes each iteration through the exact same in-process
// backend the engine uses locally (core.NewInProcess), so a piped campaign
// and an in-process campaign over the same Config are bit-identical — the
// determinism contract the cross-process conformance suite pins.
package proto

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/target"
)

// Version is the protocol version carried in the handshake. The driver
// refuses a target speaking a different version: the frame schema is an
// interface contract, pinned by golden-bytes tests. Version 2 added the
// schedule-space fields (Schedules, MatchOrder) to the assign frame; version
// 3 made the per-iteration frames binary, with exactly one answer frame per
// rank. A peer of another version would misread every iteration, so the
// mismatch is a refusal, not a downgrade.
const Version = 3

// MaxFrameBytes bounds a single frame's payload. A rank frame carries a
// whole rank log (the focus trace scales with the instrumentation tick
// budget, and under one-way instrumentation every rank's does), so the bound
// is generous; anything larger is a corrupt or hostile peer and is rejected
// before allocation.
const MaxFrameBytes = 64 << 20

// FrameType discriminates the JSON frames.
type FrameType string

// FrameHandshake opens a session (target → driver): protocol version and
// the target's static manifest. It is the only JSON frame.
const FrameHandshake FrameType = "handshake"

// Frame is the JSON envelope: a type tag plus the payload matching it.
// ReadFrame enforces the pairing. The envelope lets a peer of any protocol
// version read the handshake far enough to refuse it.
type Frame struct {
	Type      FrameType  `json:"type"`
	Handshake *Handshake `json:"handshake,omitempty"`
}

// Handshake is the session-opening payload: the target announces which
// protocol it speaks and what program it serves. The manifest is the same
// artifact `compi targets --json` exports, and it is validated on receipt —
// a target with duplicate branch IDs or §IV-A-violating inputs is refused
// before any campaign starts.
type Handshake struct {
	Proto    int             `json:"proto"`
	Manifest target.Manifest `json:"manifest"`
}

// validate checks the type tag is known and its payload present.
func (f *Frame) validate() error {
	if f.Type != FrameHandshake {
		return fmt.Errorf("proto: unknown frame type %q", f.Type)
	}
	if f.Handshake == nil {
		return fmt.Errorf("proto: %q frame without its payload", f.Type)
	}
	return nil
}

// EncodeRaw wraps an already-serialized payload in the wire form shared by
// every COMPI protocol: a 4-byte big-endian payload length, then the payload
// bytes. It is the codec layer under EncodeFrame, exported so other frame
// schemas (the fleet's campaign-dispatch protocol) reuse the exact same
// framing without adopting this package's frame envelope.
func EncodeRaw(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("proto: refusing to encode a zero-length frame")
	}
	if len(payload) > MaxFrameBytes {
		return nil, fmt.Errorf("proto: frame of %d bytes exceeds limit %d", len(payload), MaxFrameBytes)
	}
	b := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	copy(b[4:], payload)
	return b, nil
}

// WriteRaw writes one length-prefixed payload to w.
func WriteRaw(w io.Writer, payload []byte) error {
	b, err := EncodeRaw(payload)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadRaw reads one length-prefixed payload from r. It returns io.EOF only
// on a clean frame boundary (no bytes before the length prefix); a frame cut
// off mid-way is io.ErrUnexpectedEOF. The length prefix is bounds-checked
// before the payload buffer is allocated, so corrupt input cannot force huge
// allocations.
func ReadRaw(r io.Reader) ([]byte, error) { return readRaw(r, nil) }

// readRaw is ReadRaw reading into buf's storage when it is large enough, so
// a reader of many frames can reuse one buffer. The returned payload aliases
// that storage until the next call.
func readRaw(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("proto: truncated length prefix: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return nil, fmt.Errorf("proto: zero-length frame")
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("proto: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if m, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("proto: truncated frame payload (%d of %d bytes): %w", m, n, err)
	}
	return payload, nil
}

// EncodeFrame serializes the JSON frame f to its wire form: 4-byte
// big-endian payload length, then the JSON payload.
func EncodeFrame(f Frame) ([]byte, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("proto: encoding %q frame: %w", f.Type, err)
	}
	b, err := EncodeRaw(payload)
	if err != nil {
		return nil, fmt.Errorf("proto: %q frame: %w", f.Type, err)
	}
	return b, nil
}

// WriteFrame writes f to w as one wire frame.
func WriteFrame(w io.Writer, f Frame) error {
	b, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads one frame from r: one ReadRaw payload that must decode to
// exactly one valid frame envelope.
func ReadFrame(r io.Reader) (Frame, error) {
	payload, err := ReadRaw(r)
	if err != nil {
		return Frame{}, err
	}
	var f Frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return Frame{}, fmt.Errorf("proto: bad frame payload: %w", err)
	}
	if err := f.validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}
