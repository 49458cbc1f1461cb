package core

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// newTestWorld builds a deterministic dataset + base + engine for tests.
func newTestWorld(t testing.TB, numSeries, length int, st float64, minL, maxL int, mode Mode, band int) (*ts.Dataset, *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(20170514))
	d := ts.NewDataset("coretest")
	for i := 0; i < numSeries; i++ {
		vals := make([]float64, length)
		switch i % 3 {
		case 0: // noisy sine
			for j := range vals {
				vals[j] = 0.5 + 0.4*math.Sin(float64(j)*0.5+float64(i)) + rng.NormFloat64()*0.02
			}
		case 1: // ramp
			for j := range vals {
				vals[j] = float64(j)/float64(length) + rng.NormFloat64()*0.02
			}
		default: // random walk
			v := 0.5
			for j := range vals {
				v += rng.NormFloat64() * 0.05
				vals[j] = v
			}
		}
		d.MustAdd(ts.NewSeries("s"+strconv.Itoa(i), vals))
	}
	b, err := grouping.Build(d, grouping.Options{ST: st, MinLength: minL, MaxLength: maxL})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{Band: band, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

func TestNewEngineChecksGuards(t *testing.T) {
	d, e := newTestWorld(t, 4, 24, 0.1, 4, 8, ModeApprox, -1)
	if _, err := NewEngine(nil, e.Base(), Options{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := NewEngine(d, nil, Options{}); err == nil {
		t.Fatal("nil base accepted")
	}
	other := d.Clone()
	other.Series[0].Values[0] += 1
	if _, err := NewEngine(other, e.Base(), Options{}); err == nil {
		t.Fatal("mismatched dataset accepted")
	}
}

func TestBestMatchSelfQueryFindsItself(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	// A query copied from the dataset must be matched at distance 0.
	q := d.Series[2].Values[3:10] // length 7, in range
	m, err := bestMatch(e, q, QueryConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist != 0 {
		t.Fatalf("self query distance = %g, want 0", m.Dist)
	}
	if !m.Path.Valid(len(q), m.Ref.Length) {
		t.Fatal("result path invalid")
	}
}

func TestBestMatchExcludesOverlap(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	self := ts.SubSeq{Series: 2, Start: 3, Length: 7}
	q := self.Values(d)
	m, err := bestMatch(e, q, QueryConstraints{ExcludeOverlap: self})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ref.Overlaps(self) {
		t.Fatalf("excluded overlap returned: %+v", m.Ref)
	}
	m2, err := bestMatch(e, q, QueryConstraints{ExcludeSeries: map[int]bool{2: true}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Ref.Series == 2 {
		t.Fatal("excluded series returned")
	}
}

func TestKBestOrderingAndUniqueness(t *testing.T) {
	_, e := newTestWorld(t, 6, 30, 0.1, 5, 10, ModeApprox, -1)
	q := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	ms, err := kBest(e, q, 5, QueryConstraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
	seen := make(map[ts.SubSeq]bool)
	for i, m := range ms {
		if seen[m.Ref] {
			t.Fatalf("duplicate match %v", m.Ref)
		}
		seen[m.Ref] = true
		if i > 0 && ms[i-1].Dist > m.Dist {
			t.Fatalf("matches out of order: %g before %g", ms[i-1].Dist, m.Dist)
		}
		if got := dist.DTW(q, m.Values); !almost(got, m.Dist, 1e-9) {
			t.Fatalf("reported dist %g, recomputed %g", m.Dist, got)
		}
	}
}

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// overview runs Overview without cancellation or statistics.
func overview(t testing.TB, e *Engine, length, k int) []GroupSummary {
	t.Helper()
	sums, err := e.Overview(context.Background(), length, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

// kBest runs a top-k Find under the engine's configured options.
func kBest(e *Engine, q []float64, k int, c QueryConstraints) ([]Match, error) {
	res, err := e.Find(context.Background(), q, FindOptions{Options: e.Options(), K: k, Constraints: c})
	return res.Matches, err
}

// bestMatch is kBest with k = 1.
func bestMatch(e *Engine, q []float64, c QueryConstraints) (Match, error) {
	ms, err := kBest(e, q, 1, c)
	if err != nil {
		return Match{}, err
	}
	return ms[0], nil
}

// within runs a range Find under the engine's configured options.
func within(e *Engine, q []float64, ro RangeOptions) ([]Match, error) {
	res, err := e.Find(context.Background(), q, FindOptions{
		Options: e.Options(), Range: true, MaxDist: ro.MaxDist, K: ro.Limit, Constraints: ro.Constraints,
	})
	return res.Matches, err
}

func TestQueryValidation(t *testing.T) {
	_, e := newTestWorld(t, 4, 24, 0.1, 4, 8, ModeApprox, -1)
	if _, err := bestMatch(e, []float64{1}, QueryConstraints{}); err == nil {
		t.Fatal("length-1 query accepted")
	}
	if _, err := bestMatch(e, []float64{1, 2, 3},
		QueryConstraints{MinLength: 100, MaxLength: 200}); err != ErrNoMatch {
		t.Fatal("impossible length constraints should yield ErrNoMatch")
	}
}

func TestLengthConstraintsHonored(t *testing.T) {
	_, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	ms, err := kBest(e, q, 3, QueryConstraints{MinLength: 6, MaxLength: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Ref.Length != 6 {
			t.Fatalf("constraint violated: match length %d", m.Ref.Length)
		}
	}
}

// The central exactness property: ModeExact returns the same best distance
// as the brute-force scan over the same candidate population, for both
// banded and unbanded DTW.
func TestPropertyExactModeEqualsBruteForce(t *testing.T) {
	for _, band := range []int{-1, 3} {
		d, e := newTestWorld(t, 5, 26, 0.08, 4, 9, ModeExact, band)
		rng := rand.New(rand.NewSource(777))
		for trial := 0; trial < 12; trial++ {
			qlen := 4 + rng.Intn(6)
			q := make([]float64, qlen)
			v := rng.Float64()
			for i := range q {
				v += rng.NormFloat64() * 0.08
				q[i] = v
			}
			got, err := bestMatch(e, q, QueryConstraints{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := bruteforce.BestMatch(d, q, bruteforce.Options{
				Band:         band,
				MinLength:    e.Base().MinLength,
				MaxLength:    e.Base().MaxLength,
				EarlyAbandon: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !almost(got.Dist, want.Dist, 1e-9) {
				t.Fatalf("band %d trial %d: exact mode %g (ref %v) != brute force %g (ref %v)",
					band, trial, got.Dist, got.Ref, want.Dist, want.Ref)
			}
		}
	}
}

// Approx mode must return a genuinely indexed subsequence whose distance is
// consistent, and should usually agree with exact top-1 on easy data.
func TestApproxModeReturnsConsistentMatch(t *testing.T) {
	d, e := newTestWorld(t, 5, 26, 0.08, 4, 9, ModeApprox, -1)
	rng := rand.New(rand.NewSource(888))
	agree := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		qlen := 4 + rng.Intn(6)
		q := make([]float64, qlen)
		v := rng.Float64()
		for i := range q {
			v += rng.NormFloat64() * 0.08
			q[i] = v
		}
		got, err := bestMatch(e, q, QueryConstraints{})
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Ref.Validate(d); err != nil {
			t.Fatalf("approx match invalid ref: %v", err)
		}
		want, err := bruteforce.BestMatch(d, q, bruteforce.Options{
			Band: -1, MinLength: 4, MaxLength: 9, EarlyAbandon: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Dist < want.Dist-1e-9 {
			t.Fatalf("approx beat the oracle: %g < %g", got.Dist, want.Dist)
		}
		if almost(got.Dist, want.Dist, 1e-9) {
			agree++
		}
	}
	if agree == 0 {
		t.Fatalf("approx mode never matched exact top-1 in %d trials", trials)
	}
}

func TestOverview(t *testing.T) {
	_, e := newTestWorld(t, 6, 30, 0.1, 5, 10, ModeApprox, -1)
	ov := overview(t, e, 6, 4)
	if len(ov) == 0 {
		t.Fatal("empty overview")
	}
	if len(ov) > 4 {
		t.Fatalf("overview k not honored: %d", len(ov))
	}
	for i, gs := range ov {
		if gs.Count <= 0 || len(gs.Rep) != 6 {
			t.Fatalf("bad summary %+v", gs)
		}
		if i > 0 && ov[i-1].Count < gs.Count {
			t.Fatal("overview not sorted by cardinality")
		}
		if gs.MaxRadius > e.Base().HalfST(6)+1e-9 {
			t.Fatalf("summary radius %g exceeds ST*l/2", gs.MaxRadius)
		}
	}
	// Length 0 auto-selects.
	if ov0 := overview(t, e, 0, 3); len(ov0) == 0 {
		t.Fatal("auto-length overview empty")
	}
	// k<=0 returns all.
	if all := overview(t, e, 6, 0); len(all) < len(ov) {
		t.Fatal("k=0 should return all groups")
	}
}

func TestLengthSummaries(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 8, ModeApprox, -1)
	ls, err := e.LengthSummaries(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 4 {
		t.Fatalf("summaries = %d lengths, want 4", len(ls))
	}
	for i, s := range ls {
		if s.Groups <= 0 || s.Subsequences <= 0 {
			t.Fatalf("empty summary %+v", s)
		}
		if i > 0 && ls[i-1].Length >= s.Length {
			t.Fatal("summaries not ascending")
		}
		if want := d.NumSubsequences(s.Length, s.Length); s.Subsequences != want {
			t.Fatalf("length %d: %d subsequences, want %d", s.Length, s.Subsequences, want)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeApprox.String() != "approx" || ModeExact.String() != "exact" {
		t.Fatal("mode strings wrong")
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}
