package conc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/expr"
)

// Log is what one process writes at the end of a test execution and the
// testing framework reads back — the I/O channel whose volume the two-way
// instrumentation experiment (Table IV) measures. Light processes carry only
// the covered-branch set; the Heavy (focus) process additionally carries the
// constraint path, variable observations, and the local→global rank mapping.
type Log struct {
	Mode     Mode
	Rank     int
	Covered  []BranchBit
	Funcs    []string
	RawCount int64 // constraints generated before reduction (statistics)
	Path     []PathEntry
	Obs      []VarObs
	Mapping  [][]int32
	// Trace is the complete ordered branch-event log of a Heavy process
	// (CREST's execution file). Its size scales with the work the program
	// did, which is why one-way instrumentation makes every rank's log
	// balloon (Table IV).
	Trace []BranchBit
	// Matches are this rank's wildcard-receive choice points (schedule-mode
	// runs only): each quiescent wildcard match with more than one eligible
	// sender records the eligible-set fingerprint and the index chosen. The
	// engine negates these indices the way it negates branch predicates.
	// Recorded by every mode — the engine needs all ranks' choice points,
	// not just the focus's.
	Matches []MatchRec
}

// MatchRec is one recorded wildcard-receive choice point.
type MatchRec struct {
	Seq    int32   // global grant sequence within the run (total order)
	Comm   int32   // communicator the receive matched on
	Tag    int32   // receive tag
	Srcs   []int32 // eligible local source ranks, sorted ascending
	Choice int32   // index into Srcs actually matched
}

var errTruncated = errors.New("conc: truncated log")

// Encode serializes l to the on-disk format. The byte count of the result is
// the "log size" reported in the instrumentation experiments.
func (l *Log) Encode() []byte { return l.AppendEncode(nil) }

// AppendEncode appends l's Encode bytes to b and returns the extended
// buffer, so a writer that sends many logs can reuse one buffer.
func (l *Log) AppendEncode(b []byte) []byte {
	b = append(b, byte(l.Mode))
	b = binary.AppendUvarint(b, uint64(l.Rank))
	b = binary.AppendUvarint(b, uint64(len(l.Covered)))
	prev := uint64(0)
	for _, c := range l.Covered {
		// Delta-encode the sorted branch set.
		b = binary.AppendUvarint(b, uint64(c)-prev)
		prev = uint64(c)
	}
	b = binary.AppendUvarint(b, uint64(len(l.Funcs)))
	for _, f := range l.Funcs {
		b = appendString(b, f)
	}
	b = binary.AppendVarint(b, l.RawCount)
	b = appendPath(b, l.Path)
	b = binary.AppendUvarint(b, uint64(len(l.Obs)))
	for _, o := range l.Obs {
		b = binary.AppendUvarint(b, uint64(o.V))
		b = appendString(b, o.Name)
		b = binary.AppendVarint(b, o.Val)
		b = append(b, byte(o.Kind))
		if o.HasCap {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendVarint(b, o.Cap)
		b = binary.AppendVarint(b, int64(o.CommIdx))
		b = binary.AppendVarint(b, o.CommSize)
	}
	b = binary.AppendUvarint(b, uint64(len(l.Mapping)))
	for _, row := range l.Mapping {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, g := range row {
			b = binary.AppendVarint(b, int64(g))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(l.Trace)))
	for _, e := range l.Trace {
		b = binary.AppendUvarint(b, uint64(e))
	}
	// The match-choice section is appended only when non-empty, so logs from
	// schedule-off runs stay byte-identical to the pre-schedule format (and
	// old decoders' exact-consumption property carries over: Decode reads
	// the section iff bytes remain).
	if len(l.Matches) > 0 {
		b = binary.AppendUvarint(b, uint64(len(l.Matches)))
		for _, m := range l.Matches {
			b = binary.AppendUvarint(b, uint64(m.Seq))
			b = binary.AppendVarint(b, int64(m.Comm))
			b = binary.AppendVarint(b, int64(m.Tag))
			b = binary.AppendUvarint(b, uint64(len(m.Srcs)))
			for _, s := range m.Srcs {
				b = binary.AppendVarint(b, int64(s))
			}
			b = binary.AppendUvarint(b, uint64(m.Choice))
		}
	}
	return b
}

// EncodedSize returns len(l.Encode()) without building the buffer. The
// framework reports every rank's log size every iteration (the Table IV
// statistic) but only ever decodes the focus log, so sizing without
// serializing removes a per-rank allocation proportional to the trace length
// from the iteration loop. Pinned equal to len(Encode()) by tests.
func (l *Log) EncodedSize() int {
	n := 1 // mode byte
	n += uvarintLen(uint64(l.Rank))
	n += uvarintLen(uint64(len(l.Covered)))
	prev := uint64(0)
	for _, c := range l.Covered {
		n += uvarintLen(uint64(c) - prev)
		prev = uint64(c)
	}
	n += uvarintLen(uint64(len(l.Funcs)))
	for _, f := range l.Funcs {
		n += uvarintLen(uint64(len(f))) + len(f)
	}
	n += varintLen(l.RawCount)
	n += uvarintLen(uint64(len(l.Path)))
	for _, e := range l.Path {
		n += varintLen(int64(e.Site)) + 1 + predSize(e.Pred)
	}
	n += uvarintLen(uint64(len(l.Obs)))
	for _, o := range l.Obs {
		n += uvarintLen(uint64(o.V))
		n += uvarintLen(uint64(len(o.Name))) + len(o.Name)
		n += varintLen(o.Val)
		n += 2 // kind, hasCap
		n += varintLen(o.Cap)
		n += varintLen(int64(o.CommIdx))
		n += varintLen(o.CommSize)
	}
	n += uvarintLen(uint64(len(l.Mapping)))
	for _, row := range l.Mapping {
		n += uvarintLen(uint64(len(row)))
		for _, g := range row {
			n += varintLen(int64(g))
		}
	}
	n += uvarintLen(uint64(len(l.Trace)))
	for _, e := range l.Trace {
		n += uvarintLen(uint64(e))
	}
	if len(l.Matches) > 0 {
		n += uvarintLen(uint64(len(l.Matches)))
		for _, m := range l.Matches {
			n += uvarintLen(uint64(m.Seq))
			n += varintLen(int64(m.Comm))
			n += varintLen(int64(m.Tag))
			n += uvarintLen(uint64(len(m.Srcs)))
			for _, s := range m.Srcs {
				n += varintLen(int64(s))
			}
			n += uvarintLen(uint64(m.Choice))
		}
	}
	return n
}

// uvarintLen is the byte length of binary.AppendUvarint(nil, v).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen is the byte length of binary.AppendVarint(nil, v) (zig-zag).
func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}

func predSize(p expr.Pred) int { return 1 + exprSize(p.E) }

func exprSize(e *expr.Expr) int {
	switch e.Op {
	case expr.OpConst:
		return 1 + varintLen(e.K)
	case expr.OpVar:
		return 1 + uvarintLen(uint64(e.V))
	case expr.OpNeg:
		return 1 + exprSize(e.L)
	default:
		return 1 + exprSize(e.L) + exprSize(e.R)
	}
}

// Decode parses a log written by Encode.
func Decode(b []byte) (*Log, error) {
	d := &decoder{b: b}
	l := &Log{}
	l.Mode = Mode(d.byte())
	l.Rank = int(d.uvarint())
	n := d.count()
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		prev += d.uvarint()
		l.Covered = append(l.Covered, BranchBit(prev))
	}
	n = d.count()
	for i := uint64(0); i < n; i++ {
		l.Funcs = append(l.Funcs, d.str())
	}
	l.RawCount = d.varint()
	l.Path = d.path()
	n = d.count()
	for i := uint64(0); i < n; i++ {
		var o VarObs
		o.V = expr.Var(d.uvarint())
		o.Name = d.str()
		o.Val = d.varint()
		o.Kind = VarKind(d.byte())
		o.HasCap = d.byte() == 1
		o.Cap = d.varint()
		o.CommIdx = int32(d.varint())
		o.CommSize = d.varint()
		l.Obs = append(l.Obs, o)
	}
	n = d.count()
	for i := uint64(0); i < n; i++ {
		m := d.count()
		row := make([]int32, m)
		for j := range row {
			row[j] = int32(d.varint())
		}
		l.Mapping = append(l.Mapping, row)
	}
	n = d.count()
	for i := uint64(0); i < n; i++ {
		l.Trace = append(l.Trace, BranchBit(d.uvarint()))
	}
	if len(d.b) > 0 { // optional trailing match-choice section
		n = d.count()
		for i := uint64(0); i < n; i++ {
			var m MatchRec
			m.Seq = int32(d.uvarint())
			m.Comm = int32(d.varint())
			m.Tag = int32(d.varint())
			k := d.count()
			for j := uint64(0); j < k; j++ {
				m.Srcs = append(m.Srcs, int32(d.varint()))
			}
			m.Choice = int32(d.uvarint())
			l.Matches = append(l.Matches, m)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return l, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendPath writes a constraint path (count + entries) in the log wire
// format.
func appendPath(b []byte, path []PathEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(path)))
	for _, e := range path {
		b = binary.AppendVarint(b, int64(e.Site))
		if e.Outcome {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendPred(b, e.Pred)
	}
	return b
}

// path reads what appendPath wrote.
func (d *decoder) path() []PathEntry {
	n := d.count()
	var path []PathEntry
	for i := uint64(0); i < n; i++ {
		var e PathEntry
		e.Site = CondID(d.varint())
		e.Outcome = d.byte() == 1
		e.Pred = d.pred()
		path = append(path, e)
	}
	return path
}

// EncodePath serializes one constraint path standalone, in the same wire
// format Log.Encode uses for its path section. Search-strategy persistence
// (core.PersistentStrategy) uses it to carry DFS stacks — paths with their
// predicate trees — inside a campaign snapshot.
func EncodePath(path []PathEntry) []byte {
	return appendPath(nil, path)
}

// DecodePath parses a path written by EncodePath.
func DecodePath(b []byte) ([]PathEntry, error) {
	d := &decoder{b: b}
	path := d.path()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("conc: %d trailing bytes after path", len(d.b))
	}
	return path, nil
}

func appendPred(b []byte, p expr.Pred) []byte {
	b = append(b, byte(p.Rel))
	return appendExpr(b, p.E)
}

// appendExpr writes e in preorder.
func appendExpr(b []byte, e *expr.Expr) []byte {
	b = append(b, byte(e.Op))
	switch e.Op {
	case expr.OpConst:
		return binary.AppendVarint(b, e.K)
	case expr.OpVar:
		return binary.AppendUvarint(b, uint64(e.V))
	case expr.OpNeg:
		return appendExpr(b, e.L)
	default:
		b = appendExpr(b, e.L)
		return appendExpr(b, e.R)
	}
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a collection length and bounds it by the remaining bytes
// (every element costs at least one byte), so corrupt input cannot force
// huge allocations.
func (d *decoder) count() uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.count()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) pred() expr.Pred {
	rel := expr.Rel(d.byte())
	e := d.expr(0)
	return expr.Pred{E: e, Rel: rel}
}

const maxExprDepth = 10000

func (d *decoder) expr(depth int) *expr.Expr {
	if d.err != nil || depth > maxExprDepth {
		d.fail()
		return expr.Const(0)
	}
	op := expr.Op(d.byte())
	switch op {
	case expr.OpConst:
		return expr.Const(d.varint())
	case expr.OpVar:
		return expr.VarRef(expr.Var(d.uvarint()))
	case expr.OpNeg:
		return &expr.Expr{Op: expr.OpNeg, L: d.expr(depth + 1)}
	case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod:
		l := d.expr(depth + 1)
		r := d.expr(depth + 1)
		return &expr.Expr{Op: op, L: l, R: r}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("conc: bad expr op %d", op)
		}
		return expr.Const(0)
	}
}
