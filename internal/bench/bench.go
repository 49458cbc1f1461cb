// Package bench is the experiment harness of the reproduction: it
// regenerates, as printable tables, every quantitative claim and behaviour
// the demo paper reports (see DESIGN.md §4 for the experiment index).
//
//	E1  query latency: ONEX vs UCR-Suite-style exact vs naive DTW scan
//	E2  match accuracy: ONEX vs embedding filter-and-refine
//	E3  base construction cost and compaction
//	E4  data-driven threshold recommendation
//	E5  seasonal-query recall on planted periodic data
//	E6  certified transfer bound: empirical soundness and tightness
//
// Each experiment returns typed rows and can render itself as an aligned
// text table; cmd/onexbench wires them to the command line, and the
// repository-root bench_test.go exposes the same workloads as testing.B
// benchmarks.
package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ts"
)

// bestMatch runs a top-1 Find under the engine's configured options.
func bestMatch(e *core.Engine, q []float64) (core.Match, error) {
	res, err := e.Find(context.Background(), q, core.FindOptions{Options: e.Options(), K: 1})
	if err != nil {
		return core.Match{}, err
	}
	return res.Matches[0], nil
}

// Timer measures wall-clock durations of repeated operations, retaining
// per-operation samples so tail latency is reportable (interactivity is a
// tail property, not a mean property).
type Timer struct {
	total   time.Duration
	samples []time.Duration
}

// Time runs f once and records its duration.
func (t *Timer) Time(f func()) {
	start := time.Now()
	f()
	d := time.Since(start)
	t.total += d
	t.samples = append(t.samples, d)
}

// MeanMicros returns the mean duration per operation in microseconds.
func (t *Timer) MeanMicros() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	return float64(t.total.Microseconds()) / float64(len(t.samples))
}

// PercentileMicros returns the p-th percentile (0..1) latency in
// microseconds (nearest-rank).
func (t *Timer) PercentileMicros(p float64) float64 {
	if len(t.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(t.samples))
	copy(sorted, t.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds())
}

// TotalMillis returns the accumulated duration in milliseconds.
func (t *Timer) TotalMillis() float64 { return float64(t.total.Microseconds()) / 1000 }

// N returns the number of timed operations.
func (t *Timer) N() int { return len(t.samples) }

// NormalizeInto maps raw values into d's normalized value space (d must be
// min-max normalized); used to bring held-out queries into engine units.
func NormalizeInto(d *ts.Dataset, vals []float64) []float64 {
	out := make([]float64, len(vals))
	span := d.Norm.Max - d.Norm.Min
	for i, v := range vals {
		if span == 0 {
			out[i] = 0
		} else {
			out[i] = (v - d.Norm.Min) / span
		}
	}
	return out
}

// HeldOutQueries slices numQ random windows of length qlen out of a
// held-out dataset (fresh draws from the same generator family, unseen by
// the index) and maps them into the indexed dataset's normalized space.
// This is the UCR-style evaluation protocol: the query is a new instance
// whose nearest indexed neighbor is a class-mate, not a near-duplicate.
func HeldOutQueries(indexed, heldOut *ts.Dataset, numQ, qlen int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, 0, numQ)
	for len(out) < numQ {
		s := heldOut.Series[rng.Intn(heldOut.Len())]
		if s.Len() < qlen {
			continue
		}
		st := rng.Intn(s.Len() - qlen + 1)
		out = append(out, NormalizeInto(indexed, s.Values[st:st+qlen]))
	}
	return out
}

// PerturbedQueries draws numQ windows of length qlen from the dataset and
// perturbs them with Gaussian noise of the given magnitude (relative to the
// dataset's value range), yielding realistic queries that have meaningful
// near-neighbors without being exact copies.
func PerturbedQueries(d *ts.Dataset, numQ, qlen int, noiseFrac float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	span := ts.DatasetStats(d).Range()
	if span == 0 {
		span = 1
	}
	sigma := span * noiseFrac
	out := make([][]float64, 0, numQ)
	for len(out) < numQ {
		s := d.Series[rng.Intn(d.Len())]
		if s.Len() < qlen {
			continue
		}
		st := rng.Intn(s.Len() - qlen + 1)
		q := make([]float64, qlen)
		for i, v := range s.Values[st : st+qlen] {
			q[i] = v + rng.NormFloat64()*sigma
		}
		out = append(out, q)
	}
	return out
}

// Table is an aligned text table builder for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are Sprint-formatted.
func (tb *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	tb.rows = append(tb.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

// WriteCSV writes the table as CSV, for external plotting of the
// experiment curves.
func (tb *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(tb.header); err != nil {
		return fmt.Errorf("bench: WriteCSV: %w", err)
	}
	for _, row := range tb.rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("bench: WriteCSV: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table with aligned columns.
func (tb *Table) String() string {
	widths := make([]int, len(tb.header))
	for i, h := range tb.header {
		widths[i] = len(h)
	}
	for _, row := range tb.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(tb.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range tb.rows {
		writeRow(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
