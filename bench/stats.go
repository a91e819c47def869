package main

import (
	"slices"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEndMetrics are what a user of the system sees, measured with tracing
// off. BENCHMARK.json fixes the bound each may worsen by.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"iters_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// percentile is the nearest-rank p-quantile of ds (0 for no samples).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(p*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// medianOf is the median of xs, averaging the middle pair.
func medianOf(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// spreads computed here match the ones the benchmark contract is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
