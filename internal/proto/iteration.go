package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/mpi"
)

// The per-iteration frames are binary. Both travel in the EncodeRaw framing;
// inside a payload, integers are encoding/binary varints (zig-zag for signed
// values) and a string is a uvarint length followed by its bytes.
//
// Assign (driver → target), one per iteration, is a core.LaunchSpec:
//
//	varint   iter, nprocs, focus, seed, timeout (ns), max ticks, trace hint
//	byte     flags: 1 reduction, 2 one-way, 4 schedules
//	uvarint  input count, then per input in ascending key order: string, varint
//	uvarint  param count, then the params the same way
//	uvarint  match-order rank count, then per rank: uvarint count, varints
//
// Rank (target → driver), exactly nprocs per iteration in rank order:
//
//	byte     status, an mpi.RankStatus (0..4)
//	varint   exit code
//	string   error message, empty for none
//	rest     the rank's conc.Log wire encoding; empty when it has no log
//
// The decoders accept only what the encoders write (minimal varints, known
// flags and statuses, strictly ascending keys, no trailing bytes), so an
// accepted frame re-encodes to its own bytes, and they check every count
// against the bytes left before allocating for it.

// Assign flag bits.
const (
	flagReduction = 1 << iota
	flagOneWay
	flagSchedules
	flagsKnown = flagReduction | flagOneWay | flagSchedules
)

// appendFrameHeader reserves a length prefix at the end of b for a frame
// whose payload is appended next; endFrame fills it in.
func appendFrameHeader(b []byte) []byte { return append(b, 0, 0, 0, 0) }

// endFrame fills in the length prefix of the frame b holds.
func endFrame(b []byte) error {
	n := len(b) - 4
	if n > MaxFrameBytes {
		return fmt.Errorf("proto: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	return nil
}

// appendAssign appends s's assign payload to b.
func appendAssign(b []byte, s core.LaunchSpec) []byte {
	for _, v := range [...]int64{int64(s.Iter), int64(s.NProcs), int64(s.Focus), s.Seed,
		int64(s.Timeout), s.MaxTicks, int64(s.TraceHint)} {
		b = binary.AppendVarint(b, v)
	}
	var flags byte
	if s.Reduction {
		flags |= flagReduction
	}
	if s.OneWay {
		flags |= flagOneWay
	}
	if s.Schedules {
		flags |= flagSchedules
	}
	b = append(b, flags)
	b = appendValues(b, s.Inputs)
	b = appendValues(b, s.Params)
	b = binary.AppendUvarint(b, uint64(len(s.MatchOrder)))
	for _, row := range s.MatchOrder {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, x := range row {
			b = binary.AppendVarint(b, int64(x))
		}
	}
	return b
}

// appendValues appends m's entries in ascending key order.
func appendValues(b []byte, m map[string]int64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.AppendVarint(b, m[k])
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodeAssign parses an assign payload.
func decodeAssign(p []byte) (core.LaunchSpec, error) {
	d := wireDecoder{b: p}
	s := core.LaunchSpec{
		Iter:   int(d.varint()),
		NProcs: int(d.varint()),
		Focus:  int(d.varint()),
		Seed:   d.varint(),
	}
	s.Timeout = time.Duration(d.varint())
	s.MaxTicks = d.varint()
	s.TraceHint = int(d.varint())
	flags := d.byte()
	if flags&^flagsKnown != 0 {
		d.fail(fmt.Errorf("proto: unknown assign flags %#x", flags))
	}
	s.Reduction = flags&flagReduction != 0
	s.OneWay = flags&flagOneWay != 0
	s.Schedules = flags&flagSchedules != 0
	s.Inputs = d.values()
	s.Params = d.values()
	if n := d.count(1); n > 0 {
		s.MatchOrder = make([][]int, n)
		for i := range s.MatchOrder {
			if m := d.count(1); m > 0 {
				row := make([]int, m)
				for j := range row {
					row[j] = int(d.varint())
				}
				s.MatchOrder[i] = row
			}
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Errorf("proto: %d trailing bytes after assign frame", len(d.b)))
	}
	if d.err != nil {
		return core.LaunchSpec{}, d.err
	}
	return s, nil
}

// rankFrame is one decoded rank frame; log aliases the payload.
type rankFrame struct {
	status mpi.RankStatus
	exit   int
	msg    string
	log    []byte
}

// appendRank appends f's rank payload to b. The log is the payload's tail,
// so a writer may equally leave f.log empty and append the log itself.
func appendRank(b []byte, f rankFrame) []byte {
	b = append(b, byte(f.status))
	b = binary.AppendVarint(b, int64(f.exit))
	b = appendString(b, f.msg)
	return append(b, f.log...)
}

// decodeRank parses a rank payload.
func decodeRank(p []byte) (rankFrame, error) {
	d := wireDecoder{b: p}
	f := rankFrame{status: mpi.RankStatus(d.byte())}
	f.exit = int(d.varint())
	f.msg = d.str()
	if d.err == nil && f.status > mpi.StatusDeadlock {
		d.fail(fmt.Errorf("proto: rank status %d out of range 0..%d", f.status, mpi.StatusDeadlock))
	}
	if d.err != nil {
		return rankFrame{}, d.err
	}
	f.log = d.b
	return f, nil
}

// result is rank's outcome as the frame reports it, with the log decoded.
func (f rankFrame) result(rank int) (mpi.RankResult, error) {
	rr := mpi.RankResult{Rank: rank, Status: f.status, Exit: f.exit}
	if f.msg != "" {
		rr.Err = errors.New(f.msg)
	}
	if len(f.log) > 0 {
		l, err := conc.Decode(f.log)
		if err != nil {
			return rr, fmt.Errorf("proto: undecodable log of rank %d: %w", rank, err)
		}
		rr.Log, rr.LogBytes = l, len(f.log)
	}
	return rr, nil
}

// wireDecoder reads the binary frames' fields, keeping the first error.
type wireDecoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("proto: truncated binary frame")

func (d *wireDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *wireDecoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// uvarint reads a minimally encoded uvarint: a longer form of the same value
// would not re-encode to its own bytes.
func (d *wireDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	if n > 1 && d.b[n-1] == 0 {
		d.fail(fmt.Errorf("proto: non-minimal varint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a collection length and bounds it by the bytes left, given
// that every element takes at least min of them.
func (d *wireDecoder) count(min int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/min) {
		d.fail(errTruncated)
		return 0
	}
	return int(n)
}

func (d *wireDecoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// values reads what appendValues wrote; an empty map decodes as nil.
func (d *wireDecoder) values() map[string]int64 {
	n := d.count(2) // a key length and a value
	if n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail(fmt.Errorf("proto: key %q out of order", k))
		}
		m[k], prev = d.varint(), k
	}
	return m
}
