package proto

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/target"
)

// FuzzDecodeFrame throws arbitrary bytes at the wire decoders: the JSON
// handshake reader, and the binary assign and rank decoders over the
// frame's payload. Their contract under corruption — flipped length
// prefixes, truncated payloads, oversized claims, bad counts — is to return
// an error: they must never panic, and they must check every length before
// allocating for it, so hostile input cannot force unbounded allocation.
// A binary frame they accept must re-encode to the identical bytes.
func FuzzDecodeFrame(f *testing.F) {
	b := target.NewBuilder("fuzz", 1)
	b.Cond("f", "x > 0")
	b.In("x")
	manifest := b.Build(func(*mpi.Proc) int { return 0 }).Manifest()

	hs, err := EncodeFrame(Frame{Type: FrameHandshake, Handshake: &Handshake{Proto: Version, Manifest: manifest}})
	if err != nil {
		f.Fatal(err)
	}
	log := (&conc.Log{Mode: conc.Heavy, Rank: 2, Covered: []conc.BranchBit{1, 4}, Funcs: []string{"main"}}).Encode()
	for _, raw := range [][]byte{
		hs,
		frame(appendAssign(nil, core.LaunchSpec{Iter: 1, NProcs: 4, Focus: 1, Seed: 7,
			Inputs: map[string]int64{"x": 3}})),
		frame(appendAssign(nil, core.LaunchSpec{NProcs: 3, Schedules: true, OneWay: true,
			Params: map[string]int64{"a": -1, "b": 2}, MatchOrder: [][]int{{1, 0}, nil, {2}}})),
		frame(appendRank(nil, rankFrame{log: log})),
		frame(appendRank(nil, rankFrame{status: mpi.StatusAborted, exit: 1, msg: "boom"})),
	} {
		f.Add(raw)
		f.Add(raw[:len(raw)-3]) // truncated payload
		f.Add(raw[:2])          // truncated length prefix
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})             // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length claim
	f.Add(append([]byte{0, 0, 0, 4}, "junk"...))
	f.Add(append([]byte{0, 0, 0, 2}, "{}"...))                  // valid JSON, no type
	f.Add(frame(appendRank(nil, rankFrame{status: 9})))         // status out of range
	f.Add(append([]byte{0, 0, 0, 4}, 0, 0, 0xff, 0x7f))         // message length past the payload
	f.Add(append([]byte{0, 0, 0, 4}, 0x80, 0x00, 0x04, 0x00))   // non-minimal varint
	f.Add(frame(append(appendRank(nil, rankFrame{}), 0xff, 9))) // undecodable log

	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := ReadFrame(bytes.NewReader(data)); err != nil {
			if err == io.EOF && len(data) != 0 {
				t.Fatalf("io.EOF for %d leftover bytes; EOF must mean a clean frame boundary", len(data))
			}
		} else {
			// An accepted handshake is a well-formed envelope by
			// construction, so it must re-encode.
			raw, err := EncodeFrame(fr)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			if n := binary.BigEndian.Uint32(raw); int(n) != len(raw)-4 {
				t.Fatalf("re-encoded frame has bad length prefix %d for %d payload bytes", n, len(raw)-4)
			}
		}

		payload, err := ReadRaw(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s, err := decodeAssign(payload); err == nil {
			if n := len(s.Inputs) + len(s.Params) + len(s.MatchOrder); n > len(payload) {
				t.Fatalf("%d-byte assign frame decoded to %d entries", len(payload), n)
			}
			if again := appendAssign(nil, s); !bytes.Equal(again, payload) {
				t.Fatalf("assign frame re-encodes differently:\nread  %x\nwrote %x", payload, again)
			}
		}
		if rf, err := decodeRank(payload); err == nil {
			if again := appendRank(nil, rf); !bytes.Equal(again, payload) {
				t.Fatalf("rank frame re-encodes differently:\nread  %x\nwrote %x", payload, again)
			}
			rf.result(0) // the log decoder has its own fuzz target; here it must only not panic
		}
	})
}

// frame is payload with its length prefix.
func frame(payload []byte) []byte {
	raw, err := EncodeRaw(payload)
	if err != nil {
		panic(err)
	}
	return raw
}
