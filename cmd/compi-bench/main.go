// Command compi-bench maintains a benchmark trajectory file: it parses `go
// test -bench` output, appends one JSON object per benchmark line to a
// trajectory file ({"name":..., "n":..., "<unit>": value, ...}; ci.sh writes
// BENCH_engine.json, BENCH_fleet.json and BENCH_store.json this way), and
// prints each metric's delta against the previous entry of the same
// benchmark — so a regression in engine throughput shows up as a signed
// percentage in the CI log, not as a profile diff someone has to remember
// to take.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkEngine' . | compi-bench -out BENCH_engine.json
//	compi-bench -out BENCH_engine.json bench.txt
//
// The trajectory file is a JSON array in append order; runs are separated by
// each benchmark's recurrence. The deltas compare against the most recent
// prior entry with the same name.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry is one benchmark measurement. Metrics are keyed by their unit
// (ns/op, B/op, iters/s/core, ...), matching the BENCH_fleet.json schema.
type entry struct {
	Name    string
	N       int64
	Metrics map[string]float64
}

// MarshalJSON writes the flat {"name","n",unit:value} object with units in
// sorted order, so the file is deterministic given the measurements.
func (e entry) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteString("{\"name\":")
	name, _ := json.Marshal(e.Name)
	b.Write(name)
	fmt.Fprintf(&b, ",\"n\":%d", e.N)
	units := make([]string, 0, len(e.Metrics))
	for u := range e.Metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		key, _ := json.Marshal(u)
		b.WriteString(",")
		b.Write(key)
		b.WriteString(":")
		b.WriteString(strconv.FormatFloat(e.Metrics[u], 'g', -1, 64))
	}
	b.WriteString("}")
	return []byte(b.String()), nil
}

func (e *entry) UnmarshalJSON(data []byte) error {
	raw := map[string]any{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	e.Metrics = map[string]float64{}
	for k, v := range raw {
		switch k {
		case "name":
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("entry name is %T, not a string", v)
			}
			e.Name = s
		case "n":
			f, ok := v.(float64)
			if !ok {
				return fmt.Errorf("entry n is %T, not a number", v)
			}
			e.N = int64(f)
		default:
			if f, ok := v.(float64); ok {
				e.Metrics[k] = f
			}
		}
	}
	return nil
}

// parseBench extracts benchmark entries from `go test -bench` output. A
// benchmark line is NAME N, then (value unit) pairs:
//
//	BenchmarkEngineHPL/profile=off  2  8581890 ns/op  4661 iters/s/core ...
func parseBench(r io.Reader) ([]entry, error) {
	var out []entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		e := entry{Name: f[0], N: n, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			e.Metrics[f[i+1]] = v
		}
		if len(e.Metrics) > 0 {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

// loadTrajectory reads the existing trajectory file; a missing file is an
// empty trajectory, anything unreadable is an error (never silently dropped:
// overwriting a corrupt history would erase the record a human needs).
func loadTrajectory(path string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []entry
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// lastOf returns the most recent entry named name, scanning backwards.
func lastOf(hist []entry, name string) (entry, bool) {
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].Name == name {
			return hist[i], true
		}
	}
	return entry{}, false
}

// printDelta writes one line per metric: value, previous value, and signed
// percentage change. A previous value of 0 has no percentage; the line shows
// the absolute change instead, so a count that leaves 0 still prints.
func printDelta(w io.Writer, e entry, prev entry, found bool) {
	units := make([]string, 0, len(e.Metrics))
	for u := range e.Metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		v := e.Metrics[u]
		if !found {
			fmt.Fprintf(w, "%-44s %-14s %14.6g  (no previous entry)\n", e.Name, u, v)
			continue
		}
		pv, ok := prev.Metrics[u]
		switch {
		case !ok:
			fmt.Fprintf(w, "%-44s %-14s %14.6g  (no previous value)\n", e.Name, u, v)
		case pv == 0:
			fmt.Fprintf(w, "%-44s %-14s %14.6g  prev 0  %+.6g\n", e.Name, u, v, v)
		default:
			fmt.Fprintf(w, "%-44s %-14s %14.6g  prev %.6g  %+.1f%%\n",
				e.Name, u, v, pv, 100*(v-pv)/pv)
		}
	}
}

func main() {
	out := flag.String("out", "", "trajectory file to append to (omit to only print deltas)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "compi-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "compi-bench: at most one input file")
		os.Exit(2)
	}

	entries, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compi-bench: reading input: %v\n", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "compi-bench: no benchmark lines in input")
		os.Exit(1)
	}

	var hist []entry
	if *out != "" {
		hist, err = loadTrajectory(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compi-bench: %v\n", err)
			os.Exit(1)
		}
	}
	for _, e := range entries {
		prev, found := lastOf(hist, e.Name)
		printDelta(os.Stdout, e, prev, found)
	}
	if *out != "" {
		hist = append(hist, entries...)
		data, err := json.MarshalIndent(hist, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "compi-bench: %v\n", err)
			os.Exit(1)
		}
		tmp := *out + ".tmp"
		if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err == nil {
			err = os.Rename(tmp, *out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "compi-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("appended %d entries to %s (%d total)\n", len(entries), *out, len(hist))
	}
}
