package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median of vals; NaN when empty so a metric that was never sampled
// fails the finite-value check instead of reading as a plausible zero.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return quantile(sortedCopy(vals), 0.5)
}

// metric is one named measurement: every sample taken in the run, with
// the median as its reported value.
type metric struct {
	Name    string
	Unit    string
	Samples []float64
}

func (m *metric) value() float64 { return median(m.Samples) }

// results keeps metrics in first-added order so tables print by layer.
type results struct {
	order  []string
	byName map[string]*metric
}

func newResults() *results { return &results{byName: make(map[string]*metric)} }

// add appends samples to the named metric, creating it on first use.
func (r *results) add(name, unit string, vals ...float64) {
	m, ok := r.byName[name]
	if !ok {
		m = &metric{Name: name, Unit: unit}
		r.byName[name] = m
		r.order = append(r.order, name)
	}
	m.Samples = append(m.Samples, vals...)
}

func (r *results) get(name string) float64 {
	if m, ok := r.byName[name]; ok {
		return m.value()
	}
	return math.NaN()
}

// printTable writes name, unit, median, quartiles and sample count.
func (r *results) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-32s %-10s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, name := range r.order {
		m := r.byName[name]
		if len(m.Samples) == 0 {
			fmt.Fprintf(w, "%-32s %-10s %14s\n", m.Name, m.Unit, "unsampled")
			continue
		}
		s := sortedCopy(m.Samples)
		fmt.Fprintf(w, "%-32s %-10s %14.6g %14.6g %14.6g %6d\n",
			m.Name, m.Unit, quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75), len(s))
	}
}

// timeUs runs fn and returns how long it took in µs.
func timeUs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// durs converts nanosecond samples into the given unit divisor
// (1e3 = µs, 1e6 = ms, 1e9 = s).
func durs(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}
