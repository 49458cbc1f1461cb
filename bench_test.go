// Package repro's root benchmark suite: one testing.B family per
// experiment of DESIGN.md §4, plus micro-benchmarks of the distance
// substrate. Run with:
//
//	go test -bench=. -benchmem
//
// The full experiment tables (with accuracy columns and sweeps) come from
// cmd/onexbench; these benches time the same code paths at one fixed,
// CI-friendly configuration each.
package repro

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
	"repro/internal/ucrsuite"
	"repro/onex"
)

// ---- shared fixtures (built once; benches must not mutate them) ----

const (
	benchQueryLen = 32
	benchBand     = 4
	benchST       = 0.05
)

type world struct {
	data    *ts.Dataset
	base    *grouping.Base
	engine  *core.Engine
	exact   *core.Engine
	queries [][]float64
	embedIx *embed.Index
}

var (
	worldOnce sync.Once
	theWorld  *world
)

// benchWorld builds the shared E1/E2-scale fixture: 100 random walks of
// length 128, base at the query length, 16 perturbed queries.
func benchWorld(b *testing.B) *world {
	b.Helper()
	worldOnce.Do(func() {
		d := gen.RandomWalks(gen.WalkOptions{Num: 100, Length: 128, Seed: 11})
		if err := ts.NormalizeMinMax(d); err != nil {
			panic(err)
		}
		base, err := grouping.Build(d, grouping.Options{
			ST: benchST, MinLength: benchQueryLen, MaxLength: benchQueryLen,
		})
		if err != nil {
			panic(err)
		}
		engine, err := core.NewEngine(d, base, core.Options{Band: benchBand, Mode: core.ModeApprox})
		if err != nil {
			panic(err)
		}
		exact, err := core.NewEngine(d, base, core.Options{Band: benchBand, Mode: core.ModeExact})
		if err != nil {
			panic(err)
		}
		ix, err := embed.Build(d, []int{benchQueryLen}, embed.Options{
			NumRefs: 8, Refine: 16, Band: benchBand, Seed: 13,
		})
		if err != nil {
			panic(err)
		}
		theWorld = &world{
			data:    d,
			base:    base,
			engine:  engine,
			exact:   exact,
			queries: bench.PerturbedQueries(d, 16, benchQueryLen, 0.02, 17),
			embedIx: ix,
		}
	})
	return theWorld
}

// ---- E1: best-match latency, ONEX vs baselines ----

func BenchmarkE1_ONEXBestMatch(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		if _, err := w.engine.Find(context.Background(), q, core.FindOptions{Options: w.engine.Options(), K: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_ONEXExactBestMatch(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		if _, err := w.exact.Find(context.Background(), q, core.FindOptions{Options: w.exact.Options(), K: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_UCRSuiteBestMatch(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		if _, err := ucrsuite.BestMatch(w.data, q, ucrsuite.Options{Band: benchBand}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_BruteForceBestMatch(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		if _, err := bruteforce.BestMatch(w.data, q, bruteforce.Options{
			Band: benchBand, EarlyAbandon: false,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E2: approximate competitors at equal refine budgets ----

func BenchmarkE2_EmbedBestMatch(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.queries[i%len(w.queries)]
		if _, err := w.embedIx.BestMatch(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3: base construction ----

func BenchmarkE3_BaseBuild_N50(b *testing.B) {
	d := gen.RandomWalks(gen.WalkOptions{Num: 50, Length: 64, Seed: 19})
	if err := ts.NormalizeMinMax(d); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grouping.Build(d, grouping.Options{
			ST: benchST, MinLength: 8, MaxLength: 24,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_BaseSerialize(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.base.Write(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// ---- E4: threshold recommendation ----

func BenchmarkE4_RecommendThresholds(b *testing.B) {
	d := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RecommendThresholds(d, core.ThresholdOptions{Seed: 21}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: seasonal queries ----

func BenchmarkE5_Seasonal(b *testing.B) {
	d := gen.ElectricityLoad(gen.ElectricityOptions{Households: 1, Days: 28, SamplesPerDay: 12, Seed: 23})
	base, err := grouping.Build(d, grouping.Options{ST: 0.15, MinLength: 12, MaxLength: 12})
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.NewEngine(d, base, core.Options{Band: 2, Mode: core.ModeApprox})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.SeasonalByIndex(context.Background(), 0, core.SeasonalOptions{
			MinLength: 12, MaxLength: 12, MinOccurrences: 3,
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E6 / F1: public API end-to-end ----

func BenchmarkF1_OpenAndQuery(b *testing.B) {
	d := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := onex.Open(d, onex.Config{MinLength: 4, MaxLength: 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Find(context.Background(), onex.Query{
			Window:  onex.Window{Series: "MA", Start: 0, Length: 8},
			Exclude: onex.Exclude{Series: []string{"MA"}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----

func benchSeqs(n int) ([]float64, []float64) {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
		y[i] = math.Sin(float64(i)*0.1 + 0.4)
	}
	return x, y
}

func BenchmarkDist_ED_128(b *testing.B) {
	x, y := benchSeqs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dist.ED(x, y)
	}
}

func BenchmarkDist_DTW_128_Unconstrained(b *testing.B) {
	x, y := benchSeqs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dist.DTW(x, y)
	}
}

func BenchmarkDist_DTW_128_Band4(b *testing.B) {
	x, y := benchSeqs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dist.DTWBanded(x, y, 4)
	}
}

func BenchmarkDist_DTWEarlyAbandon_128(b *testing.B) {
	x, y := benchSeqs(128)
	ub := dist.DTWBanded(x, y, 4) * 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dist.DTWEarlyAbandon(x, y, 4, ub)
	}
}

func BenchmarkDist_Envelope_128(b *testing.B) {
	x, _ := benchSeqs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = dist.Envelope(x, 128, 4)
	}
}

func BenchmarkDist_LBKeogh_128(b *testing.B) {
	x, y := benchSeqs(128)
	u, l := dist.Envelope(y, 128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dist.LBKeogh(x, u, l, math.Inf(1))
	}
}

func BenchmarkDist_DTWPath_64(b *testing.B) {
	x, y := benchSeqs(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = dist.DTWPath(x, y, 4)
	}
}
