// Thresholds walkthrough: the paper's §3.3 threshold-recommendation
// operation on two indicators with deliberately different unit scales.
//
// "The similarity in growth rate percentages may require very small
// thresholds, whereas similarity between unemployment figures is expressed
// in tens of thousands of people [and] uses higher thresholds." This
// example shows the data-driven recommendations tracking those scales, and
// what each choice means for the resulting ONEX base.
//
//	go run ./examples/thresholds    # also writes out/thresholds_*.svg
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/viz"
	"repro/onex"
)

func main() {
	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	for _, ind := range []gen.Indicator{gen.GrowthRate, gen.TechEmployment} {
		data := gen.Matters(gen.MattersOptions{Indicator: ind})
		unit := data.Series[0].Label("unit")
		fmt.Printf("== %s (unit: %s) ==\n", ind, unit)

		// The pairwise-distance distribution, and the raw-unit
		// recommendations cut from it: these differ across indicators by
		// orders of magnitude, which is the paper's point.
		ctx := context.Background()
		dists, probe, err := core.SampleDistances(ctx, data, core.ThresholdOptions{})
		if err != nil {
			log.Fatal(err)
		}
		recs, err := core.RecommendFromSample(ctx, data, dists, probe)
		if err != nil {
			log.Fatal(err)
		}

		// The distribution with the cut points marked: the visual form of
		// "data-driven".
		markers := make([]viz.HistogramMarker, len(recs))
		for i, r := range recs {
			markers[i] = viz.HistogramMarker{Value: r.ST, Label: r.Label}
		}
		svg := viz.Histogram(
			fmt.Sprintf("%s — pairwise ED per point (probe length %d)", ind, probe),
			dists, 40, markers, 560, 240)
		path := filepath.Join("out", fmt.Sprintf("thresholds_%s.svg", ind))
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("  wrote", path)
		fmt.Println("  raw-unit recommendations:")
		for _, r := range recs {
			fmt.Printf("    %-9s ST=%-12.4f (~%d groups, %.1fx compaction at probe length)\n",
				r.Label, r.ST, r.EstGroups, r.EstCompaction)
		}

		// Opening with each recommendation shows the base-size trade-off
		// the analyst is navigating (normalized units inside the engine).
		db, err := onex.Open(data, onex.Config{MinLength: 4, MaxLength: 10})
		if err != nil {
			log.Fatal(err)
		}
		st := db.Stats()
		fmt.Printf("  auto-opened base: ST=%.4f -> %d groups, %.1fx compaction\n\n",
			db.ST(), st.Groups, st.CompactionRatio)
	}
}
