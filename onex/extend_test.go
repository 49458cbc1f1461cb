package onex

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

func TestWithinThresholdPublic(t *testing.T) {
	db := openSmall(t)
	raw, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	q := raw[0:8]
	ms := mustFind(t, db, Query{Values: q, MaxDist: 0.05})
	if len(ms) == 0 {
		t.Fatal("self window should be within any threshold")
	}
	for i, m := range ms {
		if m.Dist > 0.05+1e-9 {
			t.Fatalf("match %d beyond threshold: %g", i, m.Dist)
		}
		if i > 0 && ms[i-1].Dist > m.Dist {
			t.Fatal("results out of order")
		}
	}
	// Larger thresholds can only grow the set.
	more := mustFind(t, db, Query{Values: q, MaxDist: 0.1})
	if len(more) < len(ms) {
		t.Fatal("looser threshold shrank the result set")
	}
	// Limit honored.
	lim := mustFind(t, db, Query{Values: q, MaxDist: 0.1, K: 2})
	if len(lim) > 2 {
		t.Fatal("limit ignored")
	}
}

func TestCommonPatternsPublic(t *testing.T) {
	db := openSmall(t)
	shapes := mustAnalyze(t, db, Analysis{Kind: AnalysisCommonPatterns, MinSeries: 2, K: 5}).Common
	if len(shapes) == 0 {
		t.Fatal("MATTERS regional structure should yield cross-series shapes")
	}
	if len(shapes) > 5 {
		t.Fatal("k ignored")
	}
	for _, s := range shapes {
		if len(s.Series) < 2 {
			t.Fatalf("shape spans %d series", len(s.Series))
		}
		if len(s.Rep) != s.Length || s.TotalMembers < len(s.Series) {
			t.Fatalf("malformed shape %+v", s)
		}
		seen := map[string]bool{}
		for _, n := range s.Series {
			if seen[n] {
				t.Fatal("duplicate series name")
			}
			seen[n] = true
		}
	}
}

func TestSimilaritySweepPublic(t *testing.T) {
	db := openSmall(t)
	raw, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	thresholds := []float64{0.02, 0.05, 0.1}
	pts := mustAnalyze(t, db, Analysis{
		Kind: AnalysisSimilaritySweep, Values: raw[0:8], Thresholds: thresholds,
	}).Sweep
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Matches > pts[i].Matches {
			t.Fatal("sweep not monotone")
		}
	}
	if pts[len(pts)-1].Matches == 0 {
		t.Fatal("no matches at the loosest threshold despite self window")
	}
	// A window addressing the same samples answers identically.
	win := mustAnalyze(t, db, Analysis{
		Kind:       AnalysisSimilaritySweep,
		Window:     Window{Series: "MA", Start: 0, Length: 8},
		Thresholds: thresholds,
	}).Sweep
	if !reflect.DeepEqual(win, pts) {
		t.Fatalf("window sweep %+v != values sweep %+v", win, pts)
	}
}

func TestThresholdDistributionPublic(t *testing.T) {
	db := openSmall(t)
	tr := mustAnalyze(t, db, Analysis{Kind: AnalysisThresholds}).Thresholds
	dists, probe, recs := tr.Sample, tr.ProbeLength, tr.Recommendations
	if len(dists) == 0 || probe < 2 || len(recs) != 3 {
		t.Fatalf("distribution shape: %d dists, probe %d, %d recs", len(dists), probe, len(recs))
	}
	// Sorted ascending, and the recommended STs sit inside the sample range.
	for i := 1; i < len(dists); i++ {
		if dists[i-1] > dists[i] {
			t.Fatal("distances not sorted")
		}
	}
	for _, r := range recs {
		if r.ST < dists[0]-1e-9 || r.ST > dists[len(dists)-1]+1e-9 {
			t.Fatalf("recommendation %g outside sample range [%g, %g]",
				r.ST, dists[0], dists[len(dists)-1])
		}
	}
}

func TestGroupMembersPublic(t *testing.T) {
	db := openSmall(t)
	ov := mustAnalyze(t, db, Analysis{Kind: AnalysisOverview, Length: 6, K: 1}).Groups
	if len(ov) == 0 {
		t.Fatal("no overview")
	}
	members := mustAnalyze(t, db, Analysis{Kind: AnalysisGroupMembers, Length: 6}).Members
	if len(members) != ov[0].Count {
		t.Fatalf("members %d != overview count %d", len(members), ov[0].Count)
	}
	for i, m := range members {
		if m.Length != 6 || len(m.Values) != 6 {
			t.Fatalf("malformed member %+v", m)
		}
		if i > 0 && members[i-1].RepED > m.RepED {
			t.Fatal("members not sorted")
		}
	}
	if _, err := db.Analyze(context.Background(), Analysis{Kind: AnalysisGroupMembers, Length: 6, Index: 1 << 20}); err == nil {
		t.Fatal("out-of-range group accepted")
	}
}

func TestLengthSummariesPublic(t *testing.T) {
	db := openSmall(t)
	ls := mustAnalyze(t, db, Analysis{Kind: AnalysisLengthSummaries}).LengthSummaries
	if len(ls) == 0 {
		t.Fatal("no length summaries")
	}
	total := 0
	for _, s := range ls {
		total += s.Subsequences
	}
	if total != db.Stats().Subsequences {
		t.Fatalf("summaries total %d != stats %d", total, db.Stats().Subsequences)
	}
}

func TestAddSeriesPublic(t *testing.T) {
	db := openSmall(t)
	before := db.Stats()

	// A near-clone of MA shifted by epsilon: after insertion it must be
	// MA's nearest other series.
	maVals, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	clone := make([]float64, len(maVals))
	for i, v := range maVals {
		clone[i] = v + 0.0001
	}
	if err := db.AddSeries("MA2", clone); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.Series != before.Series+1 {
		t.Fatalf("series count %d, want %d", after.Series, before.Series+1)
	}
	if after.Subsequences <= before.Subsequences {
		t.Fatal("no subsequences indexed for the new series")
	}
	m := mustFind(t, db, otherSeriesQuery("MA", 0, 8))[0]
	if m.Series != "MA2" {
		t.Fatalf("nearest other series = %s, want the inserted clone", m.Series)
	}
	if m.Dist > 0.01 {
		t.Fatalf("clone distance %g unexpectedly large", m.Dist)
	}
	// The new series is queryable as a source too.
	if _, err := db.Find(context.Background(), selfExcludedQuery("MA2", 0, 6)); err != nil {
		t.Fatal(err)
	}
}

func TestAddSeriesValidation(t *testing.T) {
	db := openSmall(t)
	if err := db.AddSeries("", []float64{1, 2}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := db.AddSeries("X", nil); err == nil {
		t.Fatal("empty values accepted")
	}
	if err := db.AddSeries("MA", []float64{1, 2, 3}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Failed adds must not corrupt the DB.
	if _, err := db.Find(context.Background(), selfExcludedQuery("MA", 0, 6)); err != nil {
		t.Fatalf("db corrupted after rejected adds: %v", err)
	}
}

func TestAddSeriesOutOfRangeValues(t *testing.T) {
	db := openSmall(t)
	// Values far beyond the normalization range map outside [0,1] but must
	// still index and validate.
	big := make([]float64, 16)
	for i := range big {
		big[i] = 1e4 + float64(i)
	}
	if err := db.AddSeries("huge", big); err != nil {
		t.Fatal(err)
	}
	m := mustFind(t, db, selfExcludedQuery("huge", 0, 8))[0]
	if math.IsNaN(m.Dist) {
		t.Fatal("NaN distance after out-of-range insert")
	}
}

func TestSaveAndOpenWithBase(t *testing.T) {
	d := smallMatters(t)
	db, err := Open(d, Config{MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "growth.base")
	if err := db.SaveBase(path); err != nil {
		t.Fatal(err)
	}

	// Reopen from the saved base: same stats, same query answers.
	db2, err := OpenWithBase(d, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Stats().Groups != db.Stats().Groups ||
		db2.Stats().Subsequences != db.Stats().Subsequences {
		t.Fatalf("reopened base differs: %+v vs %+v", db2.Stats(), db.Stats())
	}
	if db2.ST() != db.ST() {
		t.Fatalf("ST drifted: %g vs %g", db2.ST(), db.ST())
	}
	m1 := mustFind(t, db, otherSeriesQuery("MA", 0, 8))[0]
	m2 := mustFind(t, db2, otherSeriesQuery("MA", 0, 8))[0]
	if m1.Series != m2.Series || math.Abs(m1.Dist-m2.Dist) > 1e-12 {
		t.Fatalf("answers differ after reload: %+v vs %+v", m1, m2)
	}

	// A different dataset must be rejected by checksum.
	other := smallMatters(t)
	other.Series[0].Values[0] += 1
	if _, err := OpenWithBase(other, path, Config{}); err == nil {
		t.Fatal("mismatched dataset accepted")
	}
	if _, err := OpenWithBase(nil, path, Config{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := OpenWithBase(d, filepath.Join(t.TempDir(), "missing.base"), Config{}); err == nil {
		t.Fatal("missing base file accepted")
	}
}
