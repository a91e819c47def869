package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPrintDelta covers each kind of delta line: a unit the previous entry
// lacks, a previous value of 0 (absolute change), a previous value to take a
// percentage of, and a benchmark with no previous entry.
func TestPrintDelta(t *testing.T) {
	cur := entry{Name: "BenchmarkMPI/pingpong", N: 5, Metrics: map[string]float64{
		"allocs/op": 2, "ns/op": 110, "B/op": 0,
	}}
	prev := entry{Name: "BenchmarkMPI/pingpong", N: 5, Metrics: map[string]float64{
		"allocs/op": 0, "ns/op": 100,
	}}
	var buf bytes.Buffer
	printDelta(&buf, cur, prev, true)
	want := map[string]string{
		"B/op":      "(no previous value)",
		"allocs/op": "prev 0  +2",
		"ns/op":     "prev 100  +10.0%",
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != cur.Name {
			t.Fatalf("malformed line %q", line)
		}
		if !strings.HasSuffix(line, "  "+want[f[1]]) {
			t.Errorf("%s line %q, want it to end in %q", f[1], line, want[f[1]])
		}
	}

	buf.Reset()
	printDelta(&buf, cur, entry{}, false)
	if got := strings.Count(buf.String(), "(no previous entry)"); got != len(cur.Metrics) {
		t.Fatalf("no previous entry: %d of %d lines say so:\n%s", got, len(cur.Metrics), buf.String())
	}
}
