package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/ts"
)

func TestWithinThresholdBasics(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := d.Series[1].Values[4:11]
	ms, err := within(e, q, RangeOptions{MaxDist: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches within a generous threshold")
	}
	for i, m := range ms {
		if m.Score > 0.5+1e-9 {
			t.Fatalf("match %d beyond threshold: %g", i, m.Score)
		}
		if i > 0 && ms[i-1].Score > m.Score {
			t.Fatal("range results out of order")
		}
		if err := m.Ref.Validate(d); err != nil {
			t.Fatal(err)
		}
		if !m.Path.Valid(len(q), m.Ref.Length) {
			t.Fatal("range match path invalid")
		}
	}
	// The self window is in range at distance 0.
	if ms[0].Dist != 0 {
		t.Fatalf("best range match dist = %g, want 0", ms[0].Dist)
	}
}

// Range results must be exactly the brute-force set under the same
// threshold: certified group skipping must never lose a qualifying member.
func TestPropertyWithinThresholdComplete(t *testing.T) {
	d, e := newTestWorld(t, 4, 24, 0.08, 4, 8, ModeApprox, 3)
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		qlen := 4 + rng.Intn(5)
		q := make([]float64, qlen)
		v := rng.Float64()
		for i := range q {
			v += rng.NormFloat64() * 0.1
			q[i] = v
		}
		maxDist := 0.3 + rng.Float64()*1.0
		got, err := within(e, q, RangeOptions{MaxDist: maxDist})
		if err != nil {
			t.Fatal(err)
		}
		// Oracle: scan every window; engine has LengthNorm off so
		// Score == raw DTW.
		oracle := bruteScan(d, q, 3, 4, 8)
		wantSet := map[ts.SubSeq]float64{}
		for ref, dd := range oracle {
			if dd <= maxDist+1e-12 {
				wantSet[ref] = dd
			}
		}
		gotSet := map[ts.SubSeq]float64{}
		for _, m := range got {
			gotSet[m.Ref] = m.Dist
		}
		if len(gotSet) != len(wantSet) {
			t.Fatalf("trial %d: range returned %d matches, oracle has %d (maxDist %g)",
				trial, len(gotSet), len(wantSet), maxDist)
		}
		for ref, dd := range wantSet {
			gd, ok := gotSet[ref]
			if !ok {
				t.Fatalf("trial %d: missing qualifying member %v (dist %g)", trial, ref, dd)
			}
			if math.Abs(gd-dd) > 1e-9 {
				t.Fatalf("trial %d: distance mismatch for %v: %g vs %g", trial, ref, gd, dd)
			}
		}
	}
}

// bruteScan computes raw banded DTW for every window in the length range.
func bruteScan(d *ts.Dataset, q []float64, band, minL, maxL int) map[ts.SubSeq]float64 {
	out := map[ts.SubSeq]float64{}
	for si, s := range d.Series {
		for l := minL; l <= maxL && l <= s.Len(); l++ {
			for st := 0; st+l <= s.Len(); st++ {
				ref := ts.SubSeq{Series: si, Start: st, Length: l}
				out[ref] = dist.DTWBanded(q, s.Values[st:st+l], band)
			}
		}
	}
	return out
}

func TestWithinThresholdOptions(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := d.Series[0].Values[0:6]

	// Limit honored.
	limited, err := within(e, q, RangeOptions{MaxDist: 10, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) > 3 {
		t.Fatalf("limit ignored: %d results", len(limited))
	}
	// Constraints honored.
	constrained, err := within(e, q, RangeOptions{
		MaxDist:     10,
		Constraints: QueryConstraints{MinLength: 6, MaxLength: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range constrained {
		if m.Ref.Length != 6 {
			t.Fatal("length constraint violated")
		}
	}
	// Zero threshold returns only exact-zero matches.
	zero, err := within(e, q, RangeOptions{MaxDist: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range zero {
		if m.Dist != 0 {
			t.Fatalf("zero-threshold match at %g", m.Dist)
		}
	}
	// Errors.
	if _, err := within(e, []float64{1}, RangeOptions{MaxDist: 1}); err == nil {
		t.Fatal("short query accepted")
	}
	if _, err := within(e, q, RangeOptions{MaxDist: -1}); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := within(e, q, RangeOptions{
		MaxDist:     1,
		Constraints: QueryConstraints{MinLength: 999, MaxLength: 999},
	}); err != ErrNoMatch {
		t.Fatal("impossible constraints should yield ErrNoMatch")
	}
}
