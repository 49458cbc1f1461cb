package onex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/gen"
	"repro/internal/ts"
)

// openWalks opens a base large enough that the per-query worker pool
// genuinely engages (hundreds of groups across many lengths).
func openWalks(t testing.TB) *DB {
	t.Helper()
	d := gen.RandomWalks(gen.WalkOptions{Num: 8, Length: 96, Seed: 11})
	db, err := Open(d, Config{ST: 0.12, MinLength: 8, MaxLength: 20, Band: -1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFindWorkersKnob(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")

	// Negative workers are rejected like Config.Workers.
	if _, err := db.Find(context.Background(), Query{Values: raw[0:8], Workers: -2}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	// The resolved pool size is echoed: explicit values pass through,
	// zero resolves to GOMAXPROCS.
	res, err := db.Find(context.Background(), Query{Values: raw[0:8], Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query.Workers != 2 {
		t.Fatalf("echoed workers = %d, want 2", res.Query.Workers)
	}
	res, err = db.Find(context.Background(), Query{Values: raw[0:8]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("echoed workers = %d, want GOMAXPROCS = %d", res.Query.Workers, runtime.GOMAXPROCS(0))
	}
}

func TestAnalyzeWorkersKnob(t *testing.T) {
	db := openSmall(t)
	var ae *AnalysisError
	_, err := db.Analyze(context.Background(), Analysis{Kind: AnalysisOverview, Workers: -1})
	if !errors.As(err, &ae) || ae.Field != "Workers" {
		t.Fatalf("err = %v, want *AnalysisError on Workers", err)
	}
	res, err := db.Analyze(context.Background(), Analysis{Kind: AnalysisLengthSummaries, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Request.Workers != 3 {
		t.Fatalf("echoed workers = %d, want 3", res.Request.Workers)
	}
}

// TestFindWorkersEquivalencePublic pins the public contract
// (docs/ARCHITECTURE.md, "Determinism contract"): Workers only changes
// wall time. Identical matches in identical order, identical totals
// Groups, GroupsRefined and Candidates, and in exact mode identical
// Certified flags at every streamed update, at every worker count; exact
// and range answers equal the brute-force oracle; and two runs at one
// worker count report identical work counters.
func TestFindWorkersEquivalencePublic(t *testing.T) {
	db := openWalks(t)
	raw, err := db.SeriesValues("walk-000")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, q := range map[string]Query{
		"approx":            {Values: raw[0:16], K: 5},
		"exact":             {Values: raw[10:26], K: 5, Mode: ModeExact},
		"range":             {Values: raw[0:16], MaxDist: 0.1},
		"constrained":       {Window: Window{Series: "walk-000", Start: 0, Length: 16}, K: 4, Exclude: Exclude{Series: []string{"walk-000"}}},
		"exact constrained": {Window: Window{Series: "walk-000", Start: 30, Length: 12}, K: 3, Mode: ModeExact, Exclude: Exclude{Self: true}},
	} {
		var first Result
		var firstCerts [][]bool
		for wi, workers := range []int{1, 2, 4, 0} {
			label := fmt.Sprintf("%s workers=%d", name, workers)
			pq := q
			pq.Workers = workers
			res, err := db.Find(ctx, pq)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			again, err := db.Find(ctx, pq)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res.Stats.WallMicros, again.Stats.WallMicros = 0, 0
			if res.Stats != again.Stats {
				t.Fatalf("%s: stats differ between two runs: %+v vs %+v", label, res.Stats, again.Stats)
			}
			var certs [][]bool
			if q.Mode == ModeExact {
				x, err := db.Stream(ctx, pq)
				if err != nil {
					t.Fatalf("%s stream: %v", label, err)
				}
				for _, u := range drain(t, x) {
					certs = append(certs, u.Certified)
				}
			}
			if wi == 0 {
				first, firstCerts = res, certs
				continue
			}
			if !reflect.DeepEqual(res.Matches, first.Matches) {
				t.Fatalf("%s: matches %v != %v at workers=1", label, res.Matches, first.Matches)
			}
			if res.Stats.Groups != first.Stats.Groups ||
				res.Stats.GroupsRefined != first.Stats.GroupsRefined ||
				res.Stats.Candidates != first.Stats.Candidates {
				t.Fatalf("%s: worker-independent totals drifted: workers=1 %+v, %+v",
					label, first.Stats, res.Stats)
			}
			if !reflect.DeepEqual(certs, firstCerts) {
				t.Fatalf("%s: certified flags %v != %v at workers=1", label, certs, firstCerts)
			}
		}
		if q.Mode == ModeExact || q.MaxDist > 0 {
			checkPublicOracle(t, name, db, q, first.Matches)
		}
	}
}

// checkPublicOracle compares got with a brute-force scan of the DB's
// normalized data under q's candidate population, in the engine's result
// order (score, then series, start, length).
func checkPublicOracle(t *testing.T, label string, db *DB, q Query, got []Match) {
	t.Helper()
	cfg := db.Config()
	opts := bruteforce.Options{
		Band: cfg.Band, MinLength: cfg.MinLength, MaxLength: cfg.MaxLength, LengthNormalize: true,
		ExcludeSeries: map[int]bool{},
	}
	qvec := db.normalizeQuery(q.Values)
	if q.Window.Length > 0 {
		self := ts.SubSeq{Series: db.normed.IndexOf(q.Window.Series), Start: q.Window.Start, Length: q.Window.Length}
		qvec = self.Values(db.normed)
		if q.Exclude.Self {
			opts.ExcludeOverlap = self
		}
	}
	for _, name := range q.Exclude.Series {
		opts.ExcludeSeries[db.normed.IndexOf(name)] = true
	}
	all, err := bruteforce.KBest(db.normed, qvec, math.MaxInt32, opts)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		if a.Ref.Series != b.Ref.Series {
			return a.Ref.Series < b.Ref.Series
		}
		if a.Ref.Start != b.Ref.Start {
			return a.Ref.Start < b.Ref.Start
		}
		return a.Ref.Length < b.Ref.Length
	})
	var want []bruteforce.Result
	for _, r := range all {
		if q.MaxDist > 0 && r.Score > q.MaxDist || q.MaxDist == 0 && len(want) == q.K {
			break
		}
		want = append(want, r)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, oracle %d", label, len(got), len(want))
	}
	for i, r := range want {
		m := got[i]
		if m.Series != db.normed.At(r.Ref.Series).Name || m.Start != r.Ref.Start || m.Length != r.Ref.Length || m.Dist != r.Score {
			t.Fatalf("%s: match %d %s[%d:+%d] dist %g, oracle %+v score %g",
				label, i, m.Series, m.Start, m.Length, m.Dist, r.Ref, r.Score)
		}
	}
}

// TestAnalyzeWorkersEquivalencePublic does the same for the heavy analytics
// walks (seasonal mining and the certified sweep).
func TestAnalyzeWorkersEquivalencePublic(t *testing.T) {
	db := openWalks(t)
	raw, err := db.SeriesValues("walk-001")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, a := range map[string]Analysis{
		"seasonal": {Kind: AnalysisSeasonal, Series: "walk-001"},
		"common":   {Kind: AnalysisCommonPatterns},
		"sweep":    {Kind: AnalysisSimilaritySweep, Values: raw[0:16], Thresholds: []float64{0.02, 0.05, 0.1}},
	} {
		serialA := a
		serialA.Workers = 1
		serial, err := db.Analyze(ctx, serialA)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, workers := range []int{4, 0} {
			pa := a
			pa.Workers = workers
			par, err := db.Analyze(ctx, pa)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if fmt.Sprintf("%v%v%v", par.Patterns, par.Common, par.Sweep) !=
				fmt.Sprintf("%v%v%v", serial.Patterns, serial.Common, serial.Sweep) {
				t.Fatalf("%s workers=%d: payload diverged from serial", name, workers)
			}
			if par.Stats.Groups != serial.Stats.Groups || par.Stats.Candidates != serial.Stats.Candidates {
				t.Fatalf("%s workers=%d: stats drifted: %+v != %+v", name, workers, par.Stats, serial.Stats)
			}
		}
	}
}

// TestAddSeriesRacingParallelQueries drives Workers > 1 queries, parallel
// analytics walks, and mid-flight cancellations concurrently with
// AddSeries on one DB; run with -race to make it meaningful.
func TestAddSeriesRacingParallelQueries(t *testing.T) {
	db := openWalks(t)
	raw, err := db.SeriesValues("walk-002")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if i%3 == 2 {
					go cancel() // race a cancellation against the parallel scan
				}
				_, err := db.Find(ctx, Query{Values: raw[0:16], K: 4, Workers: 3})
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					errs <- err
					return
				}
				if _, err := db.Analyze(context.Background(), Analysis{
					Kind: AnalysisSeasonal, Series: "walk-003", Workers: 2,
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			vals := make([]float64, len(raw))
			for j, v := range raw {
				vals[j] = v + 0.001*float64(i+1)
			}
			if err := db.AddSeries(fmt.Sprintf("clone-%d", i), vals); err != nil {
				errs <- fmt.Errorf("AddSeries: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := db.Stats().Series, 8+3; got != want {
		t.Fatalf("series after concurrent adds = %d, want %d", got, want)
	}
}

// BenchmarkFindParallel measures intra-query parallel speedup on an
// internal/gen base: Workers follows GOMAXPROCS, so running with
// `-cpu 1,4` compares the serial engine (Workers resolves to 1) against a
// four-worker pool on identical queries — and doubles as the Workers=1
// non-regression guard.
func BenchmarkFindParallel(b *testing.B) {
	d := gen.RandomWalks(gen.WalkOptions{Num: 10, Length: 192, Seed: 7})
	db, err := Open(d, Config{ST: 0.15, MinLength: 16, MaxLength: 48, Band: -1})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := db.SeriesValues("walk-000")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("approx", func(b *testing.B) {
		q := Query{Values: raw[0:32], K: 3}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Find(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		q := Query{Values: raw[0:32], K: 3, Mode: ModeExact}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Find(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
