package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testScale keeps experiment tests fast while preserving the shapes.
var testScale = Scale{
	Reps: 1, Iters: 80, Fig4Iters: 100, FixedRuns: 2,
	Fig6MaxN: 300, RunTimeout: 30 * time.Second, Budget: 8 * time.Second,
}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d): %+v", tab.ID, row, col, tab.Rows)
	}
	return tab.Rows[row][col]
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestTableIII(t *testing.T) {
	tab := TableIII(testScale)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		total := num(t, cell(t, tab, i, 2))
		reach := num(t, cell(t, tab, i, 3))
		if reach > total {
			t.Fatalf("%s: reachable %v > total %v", cell(t, tab, i, 0), reach, total)
		}
		if total < 50 {
			t.Fatalf("%s: too few branches (%v)", cell(t, tab, i, 0), total)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab := Fig4(testScale)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Both BoundedDFS rows must beat every non-systematic strategy and be
	// the only ones to reach the solver.
	dfsMin := num(t, cell(t, tab, 0, 1))
	if v := num(t, cell(t, tab, 1, 1)); v < dfsMin {
		dfsMin = v
	}
	for i := 2; i < 5; i++ {
		if got := num(t, cell(t, tab, i, 1)); got >= dfsMin {
			t.Fatalf("strategy %s (%v) not dominated by BoundedDFS (%v)",
				cell(t, tab, i, 0), got, dfsMin)
		}
		if cell(t, tab, i, 2) != "false" {
			t.Fatalf("strategy %s unexpectedly passed the sanity check", cell(t, tab, i, 0))
		}
	}
	if cell(t, tab, 0, 2) != "true" || cell(t, tab, 1, 2) != "true" {
		t.Fatal("BoundedDFS failed to pass the sanity check")
	}
}

func TestFig6Shape(t *testing.T) {
	tab := Fig6(testScale)
	if len(tab.Rows) < 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// The focus rank's work, in log bytes, must grow clearly from N=200 to
	// the largest N while coverage stays near-flat beyond the first row.
	base := num(t, cell(t, tab, 1, 4))
	last := num(t, cell(t, tab, len(tab.Rows)-1, 4))
	if base <= 0 || last/base < 1.5 {
		t.Fatalf("focus log %v B at max N against %v B at N=200, want at least 1.5x", last, base)
	}
	covFirst := num(t, cell(t, tab, 1, 1))
	covLast := num(t, cell(t, tab, len(tab.Rows)-1, 1))
	if covLast < covFirst-3 || covLast > covFirst+10 {
		t.Fatalf("coverage not flat: %v vs %v", covFirst, covLast)
	}
}

func TestTableSchedHeadline(t *testing.T) {
	// The headline claim: within the same fixed budget, -schedules finds
	// both seeded wildcard-receive deadlocks (with the wait-for cycle
	// named), and input-only exploration finds neither.
	tab := TableSched(testScale)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d (%+v)", len(tab.Rows), tab.Rows)
	}
	wantCycle := map[string]string{
		"mworder": "wait-for cycle 0->2->0",
		"relay":   "wait-for cycle 0->2->1->0",
	}
	for i := range tab.Rows {
		name, mode := cell(t, tab, i, 0), cell(t, tab, i, 1)
		deadlocks, cycle := num(t, cell(t, tab, i, 5)), cell(t, tab, i, 6)
		switch mode {
		case "off":
			if deadlocks != 0 || cycle != "" {
				t.Fatalf("%s input-only found %v deadlocks (%q); the bug must be schedule-only", name, deadlocks, cycle)
			}
		case "on":
			if deadlocks != 1 {
				t.Fatalf("%s -schedules found %v deadlocks, want exactly 1", name, deadlocks)
			}
			if !strings.Contains(cycle, wantCycle[name]) {
				t.Fatalf("%s cycle %q, want %q", name, cycle, wantCycle[name])
			}
			if orders := num(t, cell(t, tab, i, 4)); orders < 1 {
				t.Fatalf("%s explored %v directed orders, want >= 1", name, orders)
			}
		default:
			t.Fatalf("row %d has mode %q", i, mode)
		}
	}
}

func TestBugsFindsAllFour(t *testing.T) {
	s := testScale
	s.Iters = 150
	tab := Bugs(s)
	if len(tab.Rows) != 4 {
		t.Fatalf("found %d bugs, want 4: %+v", len(tab.Rows), tab.Rows)
	}
	kinds := map[string]int{}
	for i := range tab.Rows {
		kinds[cell(t, tab, i, 1)]++
	}
	if kinds["segfault"] != 3 || kinds["FP exception"] != 1 {
		t.Fatalf("bug kinds: %v", kinds)
	}
	// The FP exception must have manifested with an even process count.
	for i := range tab.Rows {
		if cell(t, tab, i, 1) != "FP exception" {
			continue
		}
		np := int(num(t, cell(t, tab, i, 3)))
		if np%2 != 0 {
			t.Fatalf("divide-by-zero fired with %d processes; must be even", np)
		}
	}
}

func TestTableIVShape(t *testing.T) {
	tab := TableIV(testScale)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		oneWayLog := num(t, cell(t, tab, i, 5))
		twoWayLog := num(t, cell(t, tab, i, 6))
		if twoWayLog*3 > oneWayLog {
			t.Fatalf("%s N=%s: two-way log %v not ≪ one-way %v",
				cell(t, tab, i, 0), cell(t, tab, i, 1), twoWayLog, oneWayLog)
		}
	}
	// HPL's saving must grow with N: the non-focus ranks' one-way log, the
	// heavy work two-way instrumentation saves, grows with the matrix while
	// their two-way log does not. Log bytes repeat exactly from run to run.
	if one300, one600 := num(t, cell(t, tab, 2, 5)), num(t, cell(t, tab, 3, 5)); one600 < 2*one300 {
		t.Fatalf("hpl one-way log %v B at N=600 against %v B at N=300, want growth", one600, one300)
	}
	if two300, two600 := num(t, cell(t, tab, 2, 6)), num(t, cell(t, tab, 3, 6)); two600 > two300 {
		t.Fatalf("hpl two-way log %v B at N=600 against %v B at N=300, want no growth", two600, two300)
	}
	// HPL at the larger N must show a substantial time saving. The race
	// detector's uniform overhead dilutes the heavy/light cost asymmetry,
	// so under -race the threshold is logged, not enforced.
	if sv := num(t, cell(t, tab, 3, 4)); sv < 25 {
		if raceEnabled {
			t.Logf("hpl N=600 saving %v%% under -race (timing noise tolerated)", sv)
		} else {
			t.Fatalf("hpl N=600 saving %v%%, want > 25%%", sv)
		}
	}
}

func TestTableVAndFig9Shape(t *testing.T) {
	t5, f9 := TableVFig9(testScale)
	if len(t5.Rows) != 3 || len(f9.Rows) != 9 {
		t.Fatalf("rows: %d / %d", len(t5.Rows), len(f9.Rows))
	}
	for i := range t5.Rows {
		r := num(t, cell(t, t5, i, 1))
		nrb := num(t, cell(t, t5, i, 3))
		nru := num(t, cell(t, t5, i, 5))
		if r+1 < nrb || r+1 < nru { // R within a point of (or above) NR
			t.Fatalf("%s: R %v%% below NR (%v%%, %v%%)", cell(t, t5, i, 0), r, nrb, nru)
		}
	}
	// Figure 9: NRUnl's max set must exceed R's max for hpl and imb.
	find := func(prog, variant string) float64 {
		for i := range f9.Rows {
			if cell(t, f9, i, 0) == prog && cell(t, f9, i, 1) == variant {
				return num(t, cell(t, f9, i, 4))
			}
		}
		t.Fatalf("row %s/%s missing", prog, variant)
		return 0
	}
	for _, prog := range []string{"hpl", "imb-mpi1"} {
		if find(prog, "NRUnl") <= find(prog, "R") {
			t.Fatalf("%s: NRUnl max not above R max", prog)
		}
	}
}

func TestTableVIShape(t *testing.T) {
	tab := TableVI(testScale)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		fwk := num(t, cell(t, tab, i, 1))
		nofwk := num(t, cell(t, tab, i, 3))
		random := num(t, cell(t, tab, i, 5))
		if fwk <= nofwk {
			t.Fatalf("%s: Fwk %v%% not above No_Fwk %v%%", cell(t, tab, i, 0), fwk, nofwk)
		}
		if fwk <= random {
			t.Fatalf("%s: Fwk %v%% not above Random %v%%", cell(t, tab, i, 0), fwk, random)
		}
	}
	// The SUSY No_Fwk collapse: the layout check is unsatisfiable with a
	// fixed 8-process job, so No_Fwk must stay far below Fwk.
	fwk := num(t, cell(t, tab, 0, 1))
	nofwk := num(t, cell(t, tab, 0, 3))
	if nofwk*1.5 > fwk {
		t.Fatalf("susy No_Fwk %v%% did not collapse vs Fwk %v%%", nofwk, fwk)
	}
}

func TestFig8Shape(t *testing.T) {
	s := testScale
	tab := Fig8(s)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo",
		Header: []string{"A", "Bee"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "A    Bee", "333  4", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Header: []string{"A", "B"},
		Rows:   [][]string{{"1", "with,comma"}},
	}
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "A,B\n1,\"with,comma\"\n"
	if buf.String() != want {
		t.Fatalf("csv: %q want %q", buf.String(), want)
	}
}

func TestScalesAreSane(t *testing.T) {
	for _, s := range []Scale{Full, Quick} {
		if s.Reps < 1 || s.Iters < 10 || s.RunTimeout <= 0 || s.Budget <= 0 {
			t.Fatalf("bad scale: %+v", s)
		}
	}
}

func TestRegistryAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry()) {
		t.Fatal("IDs/Registry mismatch")
	}
	want := map[string]bool{"table3": true, "fig4": true, "fig6": true, "bugs": true,
		"fig8": true, "table4": true, "table5": true, "fig9": true, "table6": true,
		"sched": true}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected ID %q", id)
		}
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("missing IDs: %v", want)
	}
}
