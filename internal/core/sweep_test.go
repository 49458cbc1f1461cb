package core

import (
	"context"
	"testing"
)

func TestSimilaritySweepMonotone(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := d.Series[1].Values[4:11]
	thresholds := []float64{0.05, 0.2, 0.5, 1.0, 2.0}
	pts, err := e.SimilaritySweep(context.Background(), q, thresholds, QueryConstraints{}, e.Options(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(thresholds) {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.MaxDist != thresholds[i] {
			t.Fatalf("thresholds reordered: %+v", pts)
		}
		if i > 0 && pts[i-1].Matches > p.Matches {
			t.Fatal("match count not monotone in threshold")
		}
	}
	// Each point must agree with a direct range query.
	for _, p := range pts[:2] {
		ms, err := within(e, q, RangeOptions{MaxDist: p.MaxDist})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != p.Matches {
			t.Fatalf("sweep %d matches at %g, direct query %d", p.Matches, p.MaxDist, len(ms))
		}
	}
	// The self window guarantees at least one match at any threshold.
	if pts[0].Matches == 0 {
		t.Fatal("zero matches even with the self window indexed")
	}
}

func TestSimilaritySweepUnsortedInputAndErrors(t *testing.T) {
	d, e := newTestWorld(t, 4, 24, 0.1, 4, 8, ModeApprox, -1)
	q := d.Series[0].Values[0:6]
	pts, err := e.SimilaritySweep(context.Background(), q, []float64{1.0, 0.1, 0.5}, QueryConstraints{}, e.Options(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Output is in ascending threshold order regardless of input order.
	if pts[0].MaxDist != 0.1 || pts[2].MaxDist != 1.0 {
		t.Fatalf("sweep not sorted: %+v", pts)
	}
	if _, err := e.SimilaritySweep(context.Background(), q, nil, QueryConstraints{}, e.Options(), nil); err == nil {
		t.Fatal("empty thresholds accepted")
	}
	if _, err := e.SimilaritySweep(context.Background(), q, []float64{-1}, QueryConstraints{}, e.Options(), nil); err == nil {
		t.Fatal("negative thresholds accepted")
	}
}

func TestBestMatchWithStats(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	q := d.Series[2].Values[3:10]
	approx := FindOptions{Options: e.Options(), K: 1}
	approx.Mode = ModeApprox // the statistics describe the paper's configuration
	res, err := e.Find(context.Background(), q, approx)
	if err != nil {
		t.Fatal(err)
	}
	m, st := res.Matches[0], res.Stats
	if m.Dist != 0 {
		t.Fatalf("self query dist = %g", m.Dist)
	}
	if st.Groups == 0 {
		t.Fatal("no groups counted")
	}
	// Pruned and refined are disjoint tallies over the candidate groups
	// (an abandoned representative DTW counts as both a DTW started and a
	// prune, so RepDTW overlaps with GroupsLBPruned).
	if st.GroupsLBPruned+st.GroupsRefined > st.Groups {
		t.Fatalf("impossible stats: %+v", st)
	}
	if st.RepDTW == 0 {
		t.Fatalf("no representative DTW counted: %+v", st)
	}
	if st.GroupsRefined == 0 || st.Members == 0 {
		t.Fatalf("refinement not counted: %+v", st)
	}
	if st.MemberDTW > st.Members {
		t.Fatalf("more member DTW than members: %+v", st)
	}
	// The whole point of the base: the engine refines far fewer groups
	// than exist.
	if st.GroupsRefined > st.Groups/2 {
		t.Logf("note: refined %d of %d groups (loose threshold)", st.GroupsRefined, st.Groups)
	}
	// Errors propagate.
	if _, err := e.Find(context.Background(), []float64{1}, approx); err == nil {
		t.Fatal("short query accepted")
	}
	approx.Constraints = QueryConstraints{MinLength: 999, MaxLength: 999}
	if _, err := e.Find(context.Background(), q, approx); err == nil {
		t.Fatal("impossible constraints accepted")
	}
}
