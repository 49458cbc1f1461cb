// ECG walkthrough: the "diverse domains" promise of the demo (§4) on a
// medical workload. Beat-to-beat timing jitter makes electrocardiograms
// exactly the misaligned data DTW was built for: we find which recording
// most resembles a reference recording's rhythm, sweep the similarity
// threshold, and render the warped alignment.
//
//	go run ./examples/ecg          # writes out/ecg_match.svg
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/ts"
	"repro/internal/viz"
	"repro/onex"
)

func main() {
	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	// Six recordings, half with arrhythmia.
	data := gen.ECG(gen.ECGOptions{Num: 6, Beats: 16, SamplesPerBeat: 24, Arrhythmic: true})
	db, err := onex.Open(data, onex.Config{MinLength: 24, MaxLength: 48, Band: 4})
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("ECG collection: %d recordings, %d subsequences -> %d groups (%.1fx) in %d ms\n",
		st.Series, st.Subsequences, st.Groups, st.CompactionRatio, st.BuildMillis)

	// Take two beats of the normal reference recording as the query.
	const ref = "ecg-00"
	ctx := context.Background()
	res, err := db.Find(ctx, onex.Query{
		Window:  onex.Window{Series: ref, Start: 0, Length: 48},
		Exclude: onex.Exclude{Series: []string{ref}},
	})
	if err != nil {
		log.Fatal(err)
	}
	m := res.Matches[0]
	refClass := classOf(data, ref)
	matchClass := classOf(data, m.Series)
	fmt.Printf("query: two beats of %s (%s)\n", ref, refClass)
	fmt.Printf("best match: %s (%s) at [%d:%d), DTW %.4f\n",
		m.Series, matchClass, m.Start, m.Start+m.Length, m.Dist)

	// Threshold sweep: how the match population grows with tolerance.
	vals, err := db.SeriesValues(ref)
	if err != nil {
		log.Fatal(err)
	}
	q := vals[0:48]
	sweep, err := db.Analyze(ctx, onex.Analysis{
		Kind:       onex.AnalysisSimilaritySweep,
		Values:     q,
		Thresholds: []float64{m.Dist, m.Dist * 2, m.Dist * 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches within threshold:")
	for _, p := range sweep.Sweep {
		fmt.Printf("  <= %.4f : %d windows\n", p.MaxDist, p.Matches)
	}

	// Render the warped alignment.
	path := make(dist.WarpPath, len(m.Path))
	for i, p := range m.Path {
		path[i] = dist.PathStep{I: p[0], J: p[1]}
	}
	svg := viz.WarpChart(
		fmt.Sprintf("ECG rhythm match — %s vs %s (DTW %.4f)", ref, m.Series, m.Dist),
		viz.NamedSeries{Name: ref, Values: q},
		viz.NamedSeries{Name: m.Series, Values: m.Values},
		path, 720, 280)
	out := filepath.Join("out", "ecg_match.svg")
	if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", out)
}

func classOf(d *ts.Dataset, name string) string {
	s, ok := d.ByName(name)
	if !ok {
		return "?"
	}
	return s.Label("class")
}
