package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

func TestResolveWorkers(t *testing.T) {
	for _, tc := range []struct{ requested, n, min, max int }{
		{1, 100, 1, 1},        // explicit serial
		{4, 100, 4, 4},        // explicit pool
		{4, 2, 2, 2},          // clamped to item count
		{0, 100, 1, 1 << 20},  // GOMAXPROCS, whatever it is
		{-3, 100, 1, 1 << 20}, // negative behaves like 0
		{8, 0, 1, 1},          // no items still yields a sane pool
	} {
		got := resolveWorkers(tc.requested, tc.n)
		if got < tc.min || got > tc.max {
			t.Fatalf("resolveWorkers(%d, %d) = %d, want in [%d, %d]",
				tc.requested, tc.n, got, tc.min, tc.max)
		}
	}
}

// TestKthTrackerOffer pins the insertion-shift rewrite against a sorted-
// slice reference: same bound after every offer, for many k values and
// random (including duplicate and descending) inputs.
func TestKthTrackerOffer(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, k := range []int{1, 2, 3, 7, 16} {
		kt := newKthTracker(k)
		var ref []float64
		refBound := func() float64 {
			if len(ref) < k {
				return math.Inf(1)
			}
			return ref[k-1]
		}
		for i := 0; i < 500; i++ {
			var v float64
			switch i % 3 {
			case 0:
				v = rng.Float64()
			case 1:
				v = float64(500-i) / 500 // descending ramp
			default:
				v = math.Round(rng.Float64()*8) / 8 // duplicates
			}
			kt.offer(v)
			ref = append(ref, v)
			sort.Float64s(ref)
			if len(ref) > k {
				ref = ref[:k]
			}
			if got, want := kt.bound(), refBound(); got != want {
				t.Fatalf("k=%d after %d offers: bound %g, want %g", k, i+1, got, want)
			}
			if !sort.Float64sAreSorted(kt.vals) {
				t.Fatalf("k=%d: tracker slice unsorted: %v", k, kt.vals)
			}
		}
	}
}

// parallelWorld builds a base large enough (hundreds of groups, thousands
// of members) that every parallel code path — sharded representative
// scoring, tail resolution, in-group member fan-out, range scans — really
// triggers.
func parallelWorld(t testing.TB, mode Mode) (*ts.Dataset, *Engine) {
	t.Helper()
	d := gen.RandomWalks(gen.WalkOptions{Num: 8, Length: 96, Seed: 11})
	if err := ts.NormalizeMinMax(d); err != nil {
		t.Fatal(err)
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.12, MinLength: 8, MaxLength: 20})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGroups() < minParallelGroups {
		t.Fatalf("parallelWorld too small: %d groups", b.NumGroups())
	}
	e, err := NewEngine(d, b, Options{Band: -1, Mode: mode, LengthNorm: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, e
}

func sameMatches(t *testing.T, label string, a, b []Match) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d matches != %d matches", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Ref != b[i].Ref {
			t.Fatalf("%s: match %d ref %+v != %+v", label, i, a[i].Ref, b[i].Ref)
		}
		if a[i].Dist != b[i].Dist || a[i].Score != b[i].Score {
			t.Fatalf("%s: match %d dist/score (%g, %g) != (%g, %g)",
				label, i, a[i].Dist, a[i].Score, b[i].Dist, b[i].Score)
		}
	}
}

// TestFindWorkersEquivalence is the central parallel-correctness property
// (docs/ARCHITECTURE.md, "Determinism contract"): at every worker count
// Find returns the identical match list (same refs, same distances, same
// order), the identical totals Groups, GroupsRefined and Members, and, in
// exact mode, the identical Certified flags at every emission; exact and
// range answers equal the brute-force oracle; and at any fixed worker count
// two runs report the identical SearchStats.
func TestFindWorkersEquivalence(t *testing.T) {
	d, e := parallelWorld(t, ModeApprox)
	queries := []struct {
		name string
		fo   FindOptions
		q    []float64
	}{
		{"approx top3", FindOptions{Options: Options{Band: -1, LengthNorm: true}, K: 3}, d.Series[0].Values[0:12]},
		{"approx k10", FindOptions{Options: Options{Band: -1, LengthNorm: true}, K: 10}, d.Series[3].Values[20:36]},
		{"approx constrained", FindOptions{
			Options:     Options{Band: -1, LengthNorm: true},
			K:           5,
			Constraints: QueryConstraints{ExcludeSeries: map[int]bool{0: true}, MinLength: 10, MaxLength: 16},
		}, d.Series[0].Values[5:19]},
		{"exact top3", FindOptions{Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true}, K: 3}, d.Series[1].Values[0:12]},
		{"exact banded", FindOptions{Options: Options{Band: 3, Mode: ModeExact, LengthNorm: true}, K: 5}, d.Series[2].Values[10:28]},
		{"exact constrained", FindOptions{
			Options:     Options{Band: -1, Mode: ModeExact, LengthNorm: true},
			K:           4,
			Constraints: QueryConstraints{ExcludeSeries: map[int]bool{5: true}, MinLength: 12, MaxLength: 20},
		}, d.Series[5].Values[30:44]},
		{"range", FindOptions{Options: Options{Band: -1, LengthNorm: true}, Range: true, MaxDist: 0.08}, d.Series[4].Values[0:16]},
	}
	ctx := context.Background()
	run := func(fo FindOptions, q []float64) (FindResult, [][]bool) {
		t.Helper()
		var certs [][]bool
		fo.Progress = func(s Snapshot) { certs = append(certs, s.Certified) }
		res, err := e.Find(ctx, q, fo)
		if err != nil {
			t.Fatalf("workers=%d: %v", fo.Workers, err)
		}
		return res, certs
	}
	for _, tc := range queries {
		var first FindResult
		var firstCerts [][]bool
		for wi, workers := range []int{1, 2, 4, 0} {
			fo := tc.fo
			fo.Workers = workers
			label := tc.name + " workers=" + strconv.Itoa(workers)
			res, certs := run(fo, tc.q)
			again, _ := run(fo, tc.q)
			if res.Stats != again.Stats {
				t.Fatalf("%s: stats differ between two runs: %+v vs %+v", label, res.Stats, again.Stats)
			}
			sameMatches(t, label+" (repeat)", res.Matches, again.Matches)
			if res.Stats.GroupsLBPruned+res.Stats.GroupsRefined > res.Stats.Groups {
				t.Fatalf("%s: counters don't reconcile: %+v", label, res.Stats)
			}
			if wi == 0 {
				first, firstCerts = res, certs
				continue
			}
			sameMatches(t, label, first.Matches, res.Matches)
			if res.Stats.Groups != first.Stats.Groups ||
				res.Stats.GroupsRefined != first.Stats.GroupsRefined ||
				res.Stats.Members != first.Stats.Members {
				t.Fatalf("%s: worker-independent totals drifted: workers=1 %+v, %+v",
					label, first.Stats, res.Stats)
			}
			if !reflect.DeepEqual(firstCerts, certs) {
				t.Fatalf("%s: certified flags %v != %v at workers=1", label, certs, firstCerts)
			}
			if tc.fo.Range && res.Stats != first.Stats {
				// Range scans prune against a fixed threshold, so the full
				// statistics block is the same at every worker count.
				t.Fatalf("%s: range stats drifted: %+v vs %+v", label, first.Stats, res.Stats)
			}
		}
		if tc.fo.Range || tc.fo.Mode == ModeExact {
			checkOracle(t, tc.name, d, e, tc.q, tc.fo, first.Matches)
		}
	}
}

// oracle returns the brute-force answers for fo's candidate population in
// the engine's total result order (score, then subsequence identity): the
// best fo.K in best-match mode, every window within fo.MaxDist in range
// mode.
func oracle(t *testing.T, d *ts.Dataset, e *Engine, q []float64, fo FindOptions) []bruteforce.Result {
	t.Helper()
	minL, maxL := fo.Constraints.MinLength, fo.Constraints.MaxLength
	if minL <= 0 {
		minL = e.Base().MinLength
	}
	if maxL <= 0 {
		maxL = e.Base().MaxLength
	}
	n := math.MaxInt32
	if !fo.Range {
		n = fo.K + 64 // headroom so score ties at the cut are ordered below
	}
	all, err := bruteforce.KBest(d, q, n, bruteforce.Options{
		Band: fo.Band, MinLength: minL, MaxLength: maxL, LengthNormalize: fo.LengthNorm,
		ExcludeSeries: fo.Constraints.ExcludeSeries, ExcludeOverlap: fo.Constraints.ExcludeOverlap,
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool {
		return matchBefore(Match{Ref: all[i].Ref, Score: all[i].Score}, Match{Ref: all[j].Ref, Score: all[j].Score})
	})
	if fo.Range {
		var in []bruteforce.Result
		for _, r := range all {
			if r.Score <= fo.MaxDist {
				in = append(in, r)
			}
		}
		return in
	}
	return all[:min(fo.K, len(all))]
}

func checkOracle(t *testing.T, label string, d *ts.Dataset, e *Engine, q []float64, fo FindOptions, got []Match) {
	t.Helper()
	want := oracle(t, d, e, q, fo)
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Ref != want[i].Ref || got[i].Score != want[i].Score {
			t.Fatalf("%s: match %d %+v (score %g), oracle %+v (score %g)",
				label, i, got[i].Ref, got[i].Score, want[i].Ref, want[i].Score)
		}
	}
}

// TestAnalyticsWorkersEquivalence covers the mining walks: seasonal and
// common-pattern scans are pure reads against fixed thresholds, so results
// and the full statistics block must be identical at every worker count.
func TestAnalyticsWorkersEquivalence(t *testing.T) {
	_, e := parallelWorld(t, ModeApprox)
	ctx := context.Background()

	var serialSt SearchStats
	serialPats, err := e.SeasonalByIndex(ctx, 0, SeasonalOptions{Workers: 1}, &serialSt)
	if err != nil {
		t.Fatal(err)
	}
	var serialCommonSt SearchStats
	serialCommon, err := e.CommonPatterns(ctx, CommonOptions{Workers: 1}, &serialCommonSt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		var st SearchStats
		pats, err := e.SeasonalByIndex(ctx, 0, SeasonalOptions{Workers: workers}, &st)
		if err != nil {
			t.Fatalf("seasonal workers=%d: %v", workers, err)
		}
		if len(pats) != len(serialPats) {
			t.Fatalf("seasonal workers=%d: %d patterns != %d", workers, len(pats), len(serialPats))
		}
		for i := range pats {
			if pats[i].Group != serialPats[i].Group || pats[i].Count() != serialPats[i].Count() {
				t.Fatalf("seasonal workers=%d: pattern %d diverged", workers, i)
			}
		}
		if st != serialSt {
			t.Fatalf("seasonal workers=%d: stats %+v != %+v", workers, st, serialSt)
		}

		st = SearchStats{}
		common, err := e.CommonPatterns(ctx, CommonOptions{Workers: workers}, &st)
		if err != nil {
			t.Fatalf("common workers=%d: %v", workers, err)
		}
		if len(common) != len(serialCommon) {
			t.Fatalf("common workers=%d: %d patterns != %d", workers, len(common), len(serialCommon))
		}
		for i := range common {
			if common[i].Group != serialCommon[i].Group || common[i].SeriesCount != serialCommon[i].SeriesCount {
				t.Fatalf("common workers=%d: pattern %d diverged", workers, i)
			}
		}
		if st != serialCommonSt {
			t.Fatalf("common workers=%d: stats %+v != %+v", workers, st, serialCommonSt)
		}
	}
}

// TestConstrainedFallbackBounded is the regression test for the approx-mode
// fallback degeneration: a constrained query whose promising groups cannot
// fill k used to refine every LB-pruned group in the base unconditionally.
// The fixed walk recomputes the pruned representatives, continues in true
// score order, and stops at the same cutoff as the main loop — so the
// number of refined groups stays well below the total group count.
func TestConstrainedFallbackBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	d := ts.NewDataset("fallback")
	// probe: a distinctive high-amplitude shape whose windows group apart
	// from everything else.
	probe := make([]float64, 24)
	for i := range probe {
		probe[i] = 0.85 + 0.1*math.Sin(float64(i)*1.3)
	}
	d.MustAdd(ts.NewSeries("probe", probe))
	// near: a short near-copy of the probe, the only eligible close matches
	// once the probe itself is excluded (too few of them to fill k from the
	// promising groups alone).
	near := make([]float64, 9)
	for i := range near {
		near[i] = probe[i] + 0.002*rng.NormFloat64()
	}
	d.MustAdd(ts.NewSeries("near", near))
	// noise: many mutually-dissimilar series far from the probe, whose
	// groups the representative scoring prunes.
	for s := 0; s < 30; s++ {
		vals := make([]float64, 24)
		v := 0.15 + 0.01*float64(s)
		for i := range vals {
			v += rng.NormFloat64() * 0.04
			vals[i] = v
		}
		d.MustAdd(ts.NewSeries("noise"+strconv.Itoa(s), vals))
	}
	b, err := grouping.Build(d, grouping.Options{ST: 0.04, MinLength: 8, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, b, Options{Band: -1, Mode: ModeApprox, LengthNorm: true})
	if err != nil {
		t.Fatal(err)
	}

	var st SearchStats
	ms, err := e.search(context.Background(), probe[0:8], 3,
		QueryConstraints{ExcludeSeries: map[int]bool{0: true}},
		Options{Band: -1, Mode: ModeApprox, LengthNorm: true, Workers: 1}, &st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("constrained query returned %d matches, want 3", len(ms))
	}
	for _, m := range ms {
		if m.Ref.Series == 0 {
			t.Fatalf("excluded series returned: %+v", m.Ref)
		}
	}
	total := b.NumGroups()
	if st.GroupsRefined >= total/2 {
		t.Fatalf("fallback degenerated: refined %d of %d groups", st.GroupsRefined, total)
	}
	if st.GroupsRefined == 0 || st.Groups != total {
		t.Fatalf("implausible stats: %+v (total groups %d)", st, total)
	}
}

// TestParallelCancellation cancels live parallel scans (top-k, exact,
// range, seasonal) and requires each to surface ctx.Err() promptly — every
// worker polls per group / per member stride, so a cancelled scan may not
// run to completion.
func TestParallelCancellation(t *testing.T) {
	d, e := parallelWorld(t, ModeExact)
	q := d.Series[0].Values[0:20]
	for label, run := range map[string]func(ctx context.Context) error{
		"find": func(ctx context.Context) error {
			_, err := e.Find(ctx, q, FindOptions{
				Options: Options{Band: -1, Mode: ModeExact, LengthNorm: true, Workers: 4}, K: 5,
			})
			return err
		},
		"range": func(ctx context.Context) error {
			_, err := e.Find(ctx, q, FindOptions{
				Options: Options{Band: -1, LengthNorm: true, Workers: 4}, Range: true, MaxDist: 0.5,
			})
			return err
		},
		"seasonal": func(ctx context.Context) error {
			_, err := e.SeasonalByIndex(ctx, 0, SeasonalOptions{Workers: 4}, nil)
			return err
		},
	} {
		// Pre-cancelled: no work may happen.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s pre-cancelled: err = %v, want context.Canceled", label, err)
		}
		// Cancelled mid-flight: must return within the test's patience.
		ctx, cancel = context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- run(ctx) }()
		time.Sleep(500 * time.Microsecond)
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want nil or context.Canceled", label, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5s of cancellation", label)
		}
	}
}

// TestConcurrentParallelFinds drives many simultaneous Workers > 1 queries
// (plus mid-flight cancellations) against one engine; run with -race to
// make it meaningful.
func TestConcurrentParallelFinds(t *testing.T) {
	d, e := parallelWorld(t, ModeApprox)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := d.Series[w%len(d.Series)].Values[w : w+16]
			for i := 0; i < 4; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i == 3 {
					// The final round races a cancellation against the scan.
					ctx, cancel = context.WithCancel(ctx)
					go cancel()
				}
				_, err := e.Find(ctx, q, FindOptions{
					Options: Options{Band: -1, LengthNorm: true, Workers: 3}, K: 4,
				})
				if cancel != nil {
					cancel()
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
