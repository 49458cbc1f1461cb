// Quickstart: the smallest end-to-end ONEX session (DESIGN.md F1).
//
// It generates a small economic dataset, opens an ONEX database (min-max
// normalization, data-driven threshold, base construction), runs the three
// exploratory operations the paper describes — best-match similarity,
// seasonal patterns, threshold recommendation — and prints the results.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/onex"
)

func main() {
	// 1. Data: 50 states x 24 quarters of synthetic GDP growth (the
	//    MATTERS stand-in; see DESIGN.md §2 for the substitution note).
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate})

	// 2. Preprocess: normalize, pick a data-driven ST, build the base.
	// Economic trend exploration favors the looser recommendation — we
	// care about shape families, not near-duplicates (paper §3.3).
	recs, err := onex.RecommendForDataset(data)
	if err != nil {
		log.Fatal(err)
	}
	db, err := onex.Open(data, onex.Config{ST: recs[len(recs)-1].ST, MinLength: 4, MaxLength: 12})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("ONEX base ready: %d series, %d subsequences -> %d groups (%.1fx compaction) in %d ms\n",
		st.Series, st.Subsequences, st.Groups, st.CompactionRatio, st.BuildMillis)
	fmt.Printf("similarity threshold (auto): %.4f normalized units\n\n", db.ST())

	// 3. Similarity: which state's recent growth trajectory most
	//    resembles Massachusetts'?
	ctx := context.Background()
	res, err := db.Find(ctx, onex.Query{
		Window:  onex.Window{Series: "MA", Start: 12, Length: 12}, // the last 12 quarters
		Exclude: onex.Exclude{Series: []string{"MA"}},
	})
	if err != nil {
		log.Fatal(err)
	}
	m := res.Matches[0]
	fmt.Printf("most similar to MA's last 12 quarters: %s[%d:%d) at DTW %.4f\n",
		m.Series, m.Start, m.Start+m.Length, m.Dist)
	fmt.Printf("matched values: %.2f ... %.2f (%d points, warping path %d steps)\n\n",
		m.Values[0], m.Values[len(m.Values)-1], len(m.Values), len(m.Path))

	// 4. Seasonal: does MA's growth repeat within itself?
	seasonal, err := db.Analyze(ctx, onex.Analysis{
		Kind:           onex.AnalysisSeasonal,
		Series:         "MA",
		Lengths:        onex.Lengths{Min: 4, Max: 8},
		MinOccurrences: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	if pats := seasonal.Patterns; len(pats) == 0 {
		fmt.Println("no repeating pattern inside MA at lengths 4-8")
	} else {
		p := pats[0]
		fmt.Printf("repeating pattern in MA: length %d, %d occurrences, starts %v\n",
			p.Length, p.Occurrences, p.Starts)
	}
	fmt.Println()

	// 5. Threshold recommendation: what ST would suit this dataset?
	thresholds, err := db.Analyze(ctx, onex.Analysis{Kind: onex.AnalysisThresholds})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("threshold recommendations (normalized units):")
	for _, r := range thresholds.Thresholds.Recommendations {
		fmt.Printf("  %-9s ST=%.4f  (~%d groups at probe length)\n", r.Label, r.ST, r.EstGroups)
	}
}
