package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/mpi"
)

// handshakeGolden pins the on-the-wire schema of the session-opening frame,
// the one JSON frame. It embeds the manifest schema `compi targets --json`
// exports, so drift in either layer is an explicit interface break for
// external targets: update deliberately, alongside README/DESIGN and the
// protocol Version.
const handshakeGolden = `{"type":"handshake","handshake":{"proto":3,"manifest":{"program":"mini","sloc":42,"total_branches":4,"functions":["sanity","solve","main"],"conds":[{"id":0,"func":"sanity","label":"x \u003e= 1"},{"id":1,"func":"solve","label":"i \u003c x"}],"calls":[{"id":0,"caller":"main","callee":"sanity"},{"id":1,"caller":"main","callee":"solve"}],"inputs":[{"name":"x","cap":100,"capped":true},{"name":"seed"}]}}}`

// assignGolden and rankGolden pin the binary per-iteration frames, length
// prefix included, as hex: goldenAssign's assign frame and goldenRank's rank
// frame. Update them under the same rules as handshakeGolden.
const (
	assignGolden = "0000002f061004c6018090dfc04a80ade204500502047365656401017802010b737573792e64696d6361700803020200000104"
	rankGolden   = "0000001a01000c72616e6b20303a20626f6f6d0102020102000000000000"
)

func goldenAssign() core.LaunchSpec {
	return core.LaunchSpec{
		Iter: 3, NProcs: 8, Focus: 2, Seed: 99, Timeout: 10 * time.Second, MaxTicks: 5_000_000,
		Reduction: true, TraceHint: 40, Inputs: map[string]int64{"x": 1, "seed": -1},
		Params: map[string]int64{"susy.dimcap": 4}, Schedules: true, MatchOrder: [][]int{{1, 0}, nil, {2}},
	}
}

func goldenRank() rankFrame {
	return rankFrame{status: mpi.StatusCrash, msg: "rank 0: boom",
		log: (&conc.Log{Mode: conc.Light, Rank: 2, Covered: []conc.BranchBit{1, 3}}).Encode()}
}

func TestHandshakeGolden(t *testing.T) {
	raw, err := EncodeFrame(Frame{Type: FrameHandshake, Handshake: &Handshake{
		Proto:    Version,
		Manifest: fixtureProgram().Manifest(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 4 {
		t.Fatalf("frame of %d bytes has no length prefix", len(raw))
	}
	if n := binary.BigEndian.Uint32(raw); int(n) != len(raw)-4 {
		t.Fatalf("length prefix says %d, payload is %d bytes", n, len(raw)-4)
	}
	if got := string(raw[4:]); got != handshakeGolden {
		t.Fatalf("handshake frame drifted from the golden wire form.\ngot:\n%s\nwant:\n%s", got, handshakeGolden)
	}
}

func TestIterationFrameGolden(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		payload    []byte
	}{
		{"assign", assignGolden, appendAssign(nil, goldenAssign())},
		{"rank", rankGolden, appendRank(nil, goldenRank())},
	} {
		if got := hex.EncodeToString(frame(tc.payload)); got != tc.want {
			t.Errorf("%s frame drifted from the golden wire form.\ngot:  %s\nwant: %s", tc.name, got, tc.want)
		}
	}
	// Map iteration order must not leak into the bytes.
	for i := 0; i < 20; i++ {
		if got := hex.EncodeToString(frame(appendAssign(nil, goldenAssign()))); got != assignGolden {
			t.Fatalf("assign frame bytes vary between encodings: %s", got)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	hs := Frame{Type: FrameHandshake, Handshake: &Handshake{Proto: Version, Manifest: fixtureProgram().Manifest()}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, hs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(hs)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("handshake drifted through the wire:\ngot  %s\nwant %s", gb, wb)
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean stream end returned %v, want io.EOF", err)
	}

	for _, s := range []core.LaunchSpec{goldenAssign(), {NProcs: 1}} {
		back, err := decodeAssign(appendAssign(nil, s))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("assign drifted through the wire:\ngot  %+v\nwant %+v", back, s)
		}
	}

	log := &conc.Log{Mode: conc.Heavy, Rank: 1, Covered: []conc.BranchBit{0, 5}, Funcs: []string{"main"}}
	for _, want := range []mpi.RankResult{
		{Rank: 1, Log: log, LogBytes: log.EncodedSize()},
		{Rank: 1, Status: mpi.StatusDeadlock, Exit: 2, Err: &conc.ErrHang{Rank: 1}},
	} {
		f := rankFrame{status: want.Status, exit: want.Exit}
		if want.Err != nil {
			f.msg = want.Err.Error()
		}
		if want.Log != nil {
			f.log = want.Log.Encode()
		}
		back, err := decodeRank(appendRank(nil, f))
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.result(1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Exit != want.Exit || got.LogBytes != want.LogBytes ||
			(got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) ||
			!reflect.DeepEqual(got.Log, want.Log) {
			t.Fatalf("rank drifted through the wire:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

func TestReadFrameRejects(t *testing.T) {
	valid, err := EncodeFrame(Frame{Type: FrameHandshake, Handshake: &Handshake{Proto: Version}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"zero length", []byte{0, 0, 0, 0}, "zero-length"},
		{"oversized", []byte{0xff, 0xff, 0xff, 0xff}, "exceeds limit"},
		{"truncated prefix", valid[:2], "truncated length prefix"},
		{"truncated payload", valid[:len(valid)-3], "truncated frame payload"},
		{"not json", append([]byte{0, 0, 0, 4}, "junk"...), "bad frame payload"},
		{"unknown type", mustEncodeJSON(t, map[string]any{"type": "nonsense"}), "unknown frame type"},
		{"payload missing", mustEncodeJSON(t, map[string]any{"type": "handshake"}), "without its payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("ReadFrame accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDecodeIterationRejects feeds the binary decoders payloads the encoders
// never write. Each must be refused, not read as some nearby frame.
func TestDecodeIterationRejects(t *testing.T) {
	assign := appendAssign(nil, core.LaunchSpec{NProcs: 2, Inputs: map[string]int64{"a": 1, "b": 2}})
	// The flags byte follows seven one-byte varints, then the inputs: count
	// 2, "a" 1, "b" 2.
	withByte := func(b []byte, i int, v byte) []byte {
		b = append([]byte(nil), b...)
		b[i] = v
		return b
	}
	cases := []struct {
		name   string
		assign bool
		data   []byte
		want   string
	}{
		{"assign truncated", true, assign[:len(assign)-1], "truncated"},
		{"assign trailing bytes", true, append(append([]byte(nil), assign...), 0), "trailing bytes"},
		{"assign unknown flags", true, withByte(assign, 7, 0x80), "unknown assign flags"},
		{"assign keys out of order", true, withByte(withByte(assign, 10, 'b'), 13, 'a'), "out of order"},
		{"assign duplicate keys", true, withByte(assign, 13, 'a'), "out of order"},
		{"assign count past the payload", true, withByte(assign, 8, 100), "truncated"},
		{"assign non-minimal varint", true, append([]byte{0x80, 0x00}, assign[1:]...), "non-minimal"},
		{"rank empty", false, nil, "truncated"},
		{"rank status out of range", false, appendRank(nil, rankFrame{status: 9}), "rank status 9"},
		{"rank message past the payload", false, []byte{0, 0, 5, 'a'}, "truncated"},
		{"rank non-minimal exit", false, []byte{0, 0x80, 0x00, 0}, "non-minimal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.assign {
				_, err = decodeAssign(tc.data)
			} else {
				_, err = decodeRank(tc.data)
			}
			if err == nil {
				t.Fatal("decoder accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want substring %q", err, tc.want)
			}
		})
	}

	if _, err := (rankFrame{log: []byte{byte(conc.Light)}}).result(0); err == nil ||
		!strings.Contains(err.Error(), "undecodable log") {
		t.Fatalf("undecodable rank log gave %v", err)
	}
}

// mustEncodeJSON frames an arbitrary JSON object with a correct length
// prefix, for protocol-level (rather than framing-level) rejection cases.
func mustEncodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return frame(payload)
}
