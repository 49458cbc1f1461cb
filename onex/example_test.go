package onex_test

import (
	"context"
	"fmt"

	"repro/internal/gen"
	"repro/onex"
)

// Open a synthetic economic dataset and find which other state's growth
// trajectory most resembles Massachusetts'.
func ExampleOpen() {
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate})
	db, err := onex.Open(data, onex.Config{MinLength: 4, MaxLength: 12})
	if err != nil {
		panic(err)
	}
	res, err := db.Find(context.Background(), onex.Query{
		Window:  onex.Window{Series: "MA", Start: 12, Length: 12},
		Exclude: onex.Exclude{Series: []string{"MA"}},
	})
	if err != nil {
		panic(err)
	}
	m := res.Matches[0]
	fmt.Printf("%s matches MA's recent growth (length %d)\n", m.Series, m.Length)
	// Output: IL matches MA's recent growth (length 5)
}

// Analyze runs every exploration scenario from one composable request;
// here a seasonal query, which surfaces repeating patterns inside one
// series (daily cycles in household electricity usage), with the walk
// statistics Analyze adds.
func ExampleDB_Analyze() {
	data := gen.ElectricityLoad(gen.ElectricityOptions{Households: 1, Days: 21, SamplesPerDay: 12})
	db, err := onex.Open(data, onex.Config{MinLength: 12, MaxLength: 12, Band: 2})
	if err != nil {
		panic(err)
	}
	res, err := db.Analyze(context.Background(), onex.Analysis{
		Kind:           onex.AnalysisSeasonal,
		Series:         "household-00",
		MinOccurrences: 3,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("top pattern recurs %d times; visited every group: %v\n",
		res.Patterns[0].Occurrences, res.Stats.Groups == db.Stats().Groups)
	// Output: top pattern recurs 15 times; visited every group: true
}

// Threshold recommendations are data-driven: the suggested ST tracks the
// dataset's own distance distribution.
func ExampleDB_Analyze_thresholds() {
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate})
	db, err := onex.Open(data, onex.Config{MinLength: 4, MaxLength: 8})
	if err != nil {
		panic(err)
	}
	res, err := db.Analyze(context.Background(), onex.Analysis{Kind: onex.AnalysisThresholds})
	if err != nil {
		panic(err)
	}
	for _, r := range res.Thresholds.Recommendations {
		fmt.Printf("%s: %.4f\n", r.Label, r.ST)
	}
	// Output:
	// tight: 0.0453
	// balanced: 0.0638
	// loose: 0.0877
}

// Range queries return everything within a similarity budget; sweeping the
// budget shows how the match population grows.
func ExampleDB_Analyze_similaritySweep() {
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate})
	db, err := onex.Open(data, onex.Config{MinLength: 4, MaxLength: 8})
	if err != nil {
		panic(err)
	}
	ma, err := db.SeriesValues("MA")
	if err != nil {
		panic(err)
	}
	res, err := db.Analyze(context.Background(), onex.Analysis{
		Kind:       onex.AnalysisSimilaritySweep,
		Values:     ma[0:8],
		Thresholds: []float64{0.01, 0.05},
	})
	if err != nil {
		panic(err)
	}
	pts := res.Sweep
	fmt.Printf("monotone growth: %v\n", pts[0].Matches <= pts[1].Matches)
	// Output: monotone growth: true
}
