package onex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// matchKey identifies a match for cross-call comparison.
func matchKey(m Match) string {
	return fmt.Sprintf("%s[%d:%d)", m.Series, m.Start, m.Start+m.Length)
}

func sameMatch(t *testing.T, label string, a, b Match) {
	t.Helper()
	if matchKey(a) != matchKey(b) {
		t.Fatalf("%s: match %s != %s", label, matchKey(a), matchKey(b))
	}
	if math.Abs(a.Dist-b.Dist) > 1e-12 {
		t.Fatalf("%s: dist %g != %g", label, a.Dist, b.Dist)
	}
}

func TestFindEffectiveQuery(t *testing.T) {
	db := openSmall(t) // MinLength 4, MaxLength 10
	raw, _ := db.SeriesValues("MA")
	res, err := db.Find(context.Background(), Query{Values: raw[0:8]})
	if err != nil {
		t.Fatal(err)
	}
	eq := res.Query
	if eq.K != 1 || len(res.Matches) != 1 {
		t.Fatalf("resolved K = %d, %d matches", eq.K, len(res.Matches))
	}
	if eq.Mode != ModeApprox {
		t.Fatalf("resolved Mode = %q", eq.Mode)
	}
	if eq.Band != db.Config().Band {
		t.Fatalf("resolved Band = %d, config %d", eq.Band, db.Config().Band)
	}
	if eq.LengthNorm != NormLength {
		t.Fatalf("resolved LengthNorm = %q", eq.LengthNorm)
	}
	if eq.Lengths.Min != 4 || eq.Lengths.Max != 10 {
		t.Fatalf("resolved Lengths = %+v", eq.Lengths)
	}
}

func TestFindModeOverride(t *testing.T) {
	d := smallMatters(t)
	dbApprox, err := Open(d, Config{MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	dbExact, err := Open(d, Config{MinLength: 4, MaxLength: 8, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := dbApprox.SeriesValues("MA")
	q := Query{
		Window:  Window{Series: "MA", Start: 0, Length: 8},
		Exclude: Exclude{Self: true},
		K:       3,
	}
	_ = raw

	// Per-query exact on an approx DB equals an exact-opened DB.
	over, err := dbApprox.Find(context.Background(), Query{
		Window: q.Window, Exclude: q.Exclude, K: q.K, Mode: ModeExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	if over.Query.Mode != ModeExact {
		t.Fatalf("effective mode %q", over.Query.Mode)
	}
	want, err := dbExact.Find(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(over.Matches) != len(want.Matches) {
		t.Fatalf("override returned %d matches, exact DB %d", len(over.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		sameMatch(t, "mode override", over.Matches[i], want.Matches[i])
	}

	// The override must not stick: the next default query behaves approx.
	after, err := dbApprox.Find(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Query.Mode != ModeApprox {
		t.Fatalf("mode override leaked into DB state: %q", after.Query.Mode)
	}
}

func TestFindBandOverride(t *testing.T) {
	d := smallMatters(t)
	db, err := Open(d, Config{MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	dbWide, err := Open(d, Config{MinLength: 4, MaxLength: 8, Band: -1})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := db.SeriesValues("MA")
	over, err := db.Find(context.Background(), Query{Values: raw[0:8], K: 3, Band: -1})
	if err != nil {
		t.Fatal(err)
	}
	if over.Query.Band != -1 {
		t.Fatalf("effective band %d", over.Query.Band)
	}
	want, err := dbWide.Find(context.Background(), Query{Values: raw[0:8], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Matches {
		sameMatch(t, "band override", over.Matches[i], want.Matches[i])
	}
}

func TestFindLengthNormOverride(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	q := raw[0:8]
	normed, err := db.Find(context.Background(), Query{Values: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	rawRanked, err := db.Find(context.Background(), Query{Values: q, K: 5, LengthNorm: NormRaw})
	if err != nil {
		t.Fatal(err)
	}
	if rawRanked.Query.LengthNorm != NormRaw {
		t.Fatalf("effective length norm %q", rawRanked.Query.LengthNorm)
	}
	// Any match found under both rankings must satisfy
	// raw DTW = normalized score * max(len(q), match length).
	byKey := map[string]Match{}
	for _, m := range normed.Matches {
		byKey[matchKey(m)] = m
	}
	shared := 0
	for _, rm := range rawRanked.Matches {
		nm, ok := byKey[matchKey(rm)]
		if !ok {
			continue
		}
		shared++
		denom := float64(len(q))
		if rm.Length > len(q) {
			denom = float64(rm.Length)
		}
		if math.Abs(rm.Dist-nm.Dist*denom) > 1e-9 {
			t.Fatalf("raw %g != normalized %g * %g", rm.Dist, nm.Dist, denom)
		}
	}
	if shared == 0 {
		t.Fatal("no shared matches between rankings; cannot verify relationship")
	}
}

func TestFindCancellation(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []Query{
		{Values: raw[0:8]},
		{Values: raw[0:8], Mode: ModeExact},
		{Values: raw[0:8], MaxDist: 0.1},
	} {
		if _, err := db.Find(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("query %+v: err = %v, want context.Canceled", q, err)
		}
	}
}

func TestFindValidation(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	for name, q := range map[string]Query{
		"empty":               {},
		"values and window":   {Values: raw[0:8], Window: Window{Series: "MA", Start: 0, Length: 8}},
		"self without window": {Values: raw[0:8], Exclude: Exclude{Self: true}},
		"unknown window":      {Window: Window{Series: "nope", Start: 0, Length: 8}},
		"bad window range":    {Window: Window{Series: "MA", Start: 0, Length: 9999}},
		"unknown exclude":     {Values: raw[0:8], Exclude: Exclude{Series: []string{"nope"}}},
		"bad mode":            {Values: raw[0:8], Mode: "bogus"},
		"bad norm":            {Values: raw[0:8], LengthNorm: "bogus"},
	} {
		if _, err := db.Find(context.Background(), q); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	// nil ctx is tolerated (treated as Background).
	if _, err := db.Find(nil, Query{Values: raw[0:8]}); err != nil { //nolint:staticcheck
		t.Fatalf("nil ctx rejected: %v", err)
	}
}

func TestFindRangeSemantics(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	res, err := db.Find(context.Background(), Query{Values: raw[0:8], MaxDist: 0.1, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) > 2 {
		t.Fatalf("K cap ignored in range mode: %d matches", len(res.Matches))
	}
	for _, m := range res.Matches {
		if m.Dist > 0.1+1e-9 {
			t.Fatalf("match %s beyond MaxDist: %g", matchKey(m), m.Dist)
		}
	}
	// Unlimited range grows the set.
	all, err := db.Find(context.Background(), Query{Values: raw[0:8], MaxDist: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Matches) < len(res.Matches) {
		t.Fatal("unlimited range returned fewer matches than capped")
	}
}

func TestFindStats(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	res, err := db.Find(context.Background(), Query{Values: raw[0:8], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Groups <= 0 {
		t.Fatalf("stats report no groups considered: %+v", st)
	}
	if st.GroupsRefined <= 0 || st.Candidates <= 0 {
		t.Fatalf("stats report no refinement work: %+v", st)
	}
	if st.DTWs <= 0 {
		t.Fatalf("stats report no DTW work: %+v", st)
	}
	if st.WallMicros < 0 {
		t.Fatalf("negative wall time: %+v", st)
	}
	// Exact mode prunes via the certified transfer bound; the stats must
	// reflect that work too, not just the approximate LB cascade.
	exact, err := db.Find(context.Background(), Query{Values: raw[0:8], Mode: ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.GroupsPruned <= 0 {
		t.Fatalf("exact-mode stats report no pruning: %+v", exact.Stats)
	}
	// In exact mode every group is either certified-skipped or refined;
	// the counters are disjoint and must reconcile.
	if got := exact.Stats.GroupsPruned + exact.Stats.GroupsRefined; got != exact.Stats.Groups {
		t.Fatalf("exact-mode groups don't reconcile: pruned %d + refined %d != %d",
			exact.Stats.GroupsPruned, exact.Stats.GroupsRefined, exact.Stats.Groups)
	}
	// Range mode always runs the certified scan and says so.
	rng, err := db.Find(context.Background(), Query{Values: raw[0:8], MaxDist: 0.05, Mode: ModeApprox})
	if err != nil {
		t.Fatal(err)
	}
	if rng.Query.Mode != ModeExact {
		t.Fatalf("range mode echoed %q, want %q (certified)", rng.Query.Mode, ModeExact)
	}
}

func TestOpenConfigErrors(t *testing.T) {
	d := smallMatters(t)
	for name, tc := range map[string]struct {
		cfg   Config
		field string
	}{
		"min above max":      {Config{MinLength: 10, MaxLength: 5}, "MinLength"},
		"min one":            {Config{MinLength: 1}, "MinLength"},
		"negative min":       {Config{MinLength: -2}, "MinLength"},
		"negative max":       {Config{MaxLength: -3}, "MaxLength"},
		"negative workers":   {Config{Workers: -1}, "Workers"},
		"negative threshold": {Config{ST: -0.5}, "ST"},
		"nan threshold":      {Config{ST: math.NaN()}, "ST"},
	} {
		_, err := Open(d, tc.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *ConfigError", name, err)
		}
		if ce.Field != tc.field {
			t.Fatalf("%s: field = %q, want %q", name, ce.Field, tc.field)
		}
		if ce.Error() == "" {
			t.Fatalf("%s: empty error text", name)
		}
	}
	// OpenWithBase applies the same validation.
	if _, err := OpenWithBase(d, "irrelevant", Config{Workers: -1}); err == nil {
		t.Fatal("OpenWithBase accepted negative workers")
	}
}

// TestAddSeriesConcurrentWithFind drives queries and inserts from many
// goroutines at once; run with -race to make it meaningful. Every query
// must either succeed or report a benign no-match — never corrupt state.
func TestAddSeriesConcurrentWithFind(t *testing.T) {
	db := openSmall(t)
	raw, _ := db.SeriesValues("MA")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := db.Find(context.Background(), Query{Values: raw[0:8], K: 2}); err != nil {
					errs <- err
					return
				}
				if _, err := db.Find(context.Background(), Query{
					Window:  Window{Series: "MA", Start: 0, Length: 8},
					Exclude: Exclude{Self: true},
				}); err != nil {
					errs <- err
					return
				}
				db.Stats()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
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
	if got := db.Stats().Series; got != 56 {
		t.Fatalf("series after concurrent adds = %d, want 56", got)
	}
}

func BenchmarkFind(b *testing.B) {
	db := openSmall(b)
	raw, err := db.SeriesValues("MA")
	if err != nil {
		b.Fatal(err)
	}
	q := Query{Values: raw[0:8], K: 3}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Find(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}
