package bench

import (
	"fmt"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// E7Config parameterizes the 1-NN classification experiment: the standard
// UCR-archive protocol for judging whether a similarity search returns
// *useful* neighbors, extending the demo's accuracy story (the analyst
// trusts ONEX matches to behave like exact DTW matches).
type E7Config struct {
	// TrainPerClass / TestPerClass size the labelled splits.
	TrainPerClass, TestPerClass int
	// Length is the series length (queries use full series).
	Length int
	// Band shared by all systems.
	Band int
	// ST for the ONEX base.
	ST float64
	// Seed fixes generation.
	Seed int64
}

// DefaultE7 is the configuration the EXPERIMENTS.md table uses. The train
// split must be large enough for grouping to matter: below ~100 candidates
// the exact scan is already trivially fast and the base only adds
// indirection.
func DefaultE7() E7Config {
	return E7Config{TrainPerClass: 80, TestPerClass: 8, Length: 64, Band: 4, ST: 0.16, Seed: 7}
}

// E7Row is one dataset's classification outcome.
type E7Row struct {
	Dataset  string
	Train    int
	Test     int
	ONEXAcc  float64 // 1-NN accuracy using ONEX approximate retrieval
	ExactAcc float64 // 1-NN accuracy using exact DTW retrieval
	ONEXUs   float64 // mean per-query retrieval latency
	ExactUs  float64
	Speedup  float64
}

// RunE7 runs 1-NN classification on CBF and warped sines: each test series
// is classified by the label of its nearest *whole-series* neighbor in the
// train split, once with ONEX (approximate) retrieval and once with an
// exact scan. The claim shape: ONEX's classification accuracy matches the
// exact classifier's while answering much faster.
func RunE7(cfg E7Config) ([]E7Row, error) {
	if cfg.TrainPerClass == 0 {
		cfg = DefaultE7()
	}
	type split struct {
		name        string
		train, test *ts.Dataset
	}
	splits := []split{
		{
			name:  "cbf",
			train: gen.CBF(gen.CBFOptions{PerClass: cfg.TrainPerClass, Length: cfg.Length, Seed: cfg.Seed}),
			test:  gen.CBF(gen.CBFOptions{PerClass: cfg.TestPerClass, Length: cfg.Length, Seed: cfg.Seed + 500}),
		},
		{
			name:  "warpedsines",
			train: gen.WarpedSines(gen.SineOptions{PerClass: cfg.TrainPerClass, Length: cfg.Length, Classes: 3, Seed: cfg.Seed + 1}),
			test:  gen.WarpedSines(gen.SineOptions{PerClass: cfg.TestPerClass, Length: cfg.Length, Classes: 3, Seed: cfg.Seed + 501}),
		},
	}
	rows := make([]E7Row, 0, len(splits))
	for _, sp := range splits {
		row, err := runE7One(cfg, sp.name, sp.train, sp.test)
		if err != nil {
			return nil, fmt.Errorf("bench: E7 %s: %w", sp.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE7One(cfg E7Config, name string, train, test *ts.Dataset) (E7Row, error) {
	if err := ts.NormalizeMinMax(train); err != nil {
		return E7Row{}, err
	}
	// Whole-series 1-NN: index only full-length windows.
	base, err := grouping.Build(train, grouping.Options{
		ST: cfg.ST, MinLength: cfg.Length, MaxLength: cfg.Length,
	})
	if err != nil {
		return E7Row{}, err
	}
	engine, err := core.NewEngine(train, base, core.Options{Band: cfg.Band, Mode: core.ModeApprox})
	if err != nil {
		return E7Row{}, err
	}
	row := E7Row{Dataset: name, Train: train.Len(), Test: test.Len()}
	var onexT, exactT Timer
	onexHits, exactHits := 0, 0
	for _, s := range test.Series {
		q := NormalizeInto(train, s.Values)
		want := s.Label("class")

		var om core.Match
		onexT.Time(func() {
			om, err = bestMatch(engine, q)
		})
		if err != nil {
			return E7Row{}, err
		}
		if train.Series[om.Ref.Series].Label("class") == want {
			onexHits++
		}
		var br bruteforce.Result
		exactT.Time(func() {
			br, err = bruteforce.BestMatch(train, q, bruteforce.Options{
				Band: cfg.Band, EarlyAbandon: true,
			})
		})
		if err != nil {
			return E7Row{}, err
		}
		if train.Series[br.Ref.Series].Label("class") == want {
			exactHits++
		}
	}
	n := float64(test.Len())
	row.ONEXAcc = float64(onexHits) / n
	row.ExactAcc = float64(exactHits) / n
	row.ONEXUs = onexT.MeanMicros()
	row.ExactUs = exactT.MeanMicros()
	if row.ONEXUs > 0 {
		row.Speedup = row.ExactUs / row.ONEXUs
	}
	return row, nil
}

// TableE7 renders E7 rows.
func TableE7(rows []E7Row) string {
	tb := NewTable("dataset", "train", "test", "onex_acc", "exact_acc", "onex_us", "exact_us", "speedup")
	for _, r := range rows {
		tb.AddRow(r.Dataset, r.Train, r.Test, r.ONEXAcc, r.ExactAcc, r.ONEXUs, r.ExactUs, r.Speedup)
	}
	return tb.String()
}
