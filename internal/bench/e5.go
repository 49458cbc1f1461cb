package bench

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/grouping"
)

// E5Config parameterizes the seasonal-query evaluation (paper §3.3 and
// Fig 4: repeated patterns in household electricity usage).
type E5Config struct {
	// DaysSweep sweeps the series length in days.
	DaysSweep []int
	// SamplesPerDay fixes the sampling rate; the planted period is one
	// day = SamplesPerDay samples.
	SamplesPerDay int
	// ST for the base build.
	ST float64
	// Seed fixes generation.
	Seed int64
}

// DefaultE5 is the configuration the EXPERIMENTS.md table uses. ST is per
// point in raw kW units: daily windows repeat to within a few hundredths
// of a kW per sample plus seasonal drift.
func DefaultE5() E5Config {
	return E5Config{DaysSweep: []int{14, 28, 56}, SamplesPerDay: 12, ST: 0.15, Seed: 5}
}

// E5Row is one seasonal measurement.
type E5Row struct {
	Days      int
	SeriesLen int
	BuildMs   float64
	QueryUs   float64
	Patterns  int     // patterns reported
	BestCount int     // occurrences of the top pattern
	BestGap   float64 // mean gap of the top pattern (samples)
	// PeriodHit reports whether some pattern recovers the planted daily
	// cycle: occurrences cover at least half the days at a mean spacing
	// below two days (groups legitimately hold phase-shifted copies of
	// the daily shape, so gaps land in [1, 2) days rather than exactly 1).
	PeriodHit bool
	// Recall is the best qualifying pattern's occurrence count over the
	// number of planted days (capped at 1).
	Recall float64
}

// RunE5 builds a base over one household's consumption at the daily window
// length and checks that seasonal queries recover the planted daily cycle:
// the top pattern's mean gap should equal the day length and its
// occurrence count should approach the number of days.
func RunE5(cfg E5Config) ([]E5Row, error) {
	if len(cfg.DaysSweep) == 0 {
		cfg = DefaultE5()
	}
	rows := make([]E5Row, 0, len(cfg.DaysSweep))
	for _, days := range cfg.DaysSweep {
		row, err := runE5One(cfg, days)
		if err != nil {
			return nil, fmt.Errorf("bench: E5 days=%d: %w", days, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE5One(cfg E5Config, days int) (E5Row, error) {
	d := gen.ElectricityLoad(gen.ElectricityOptions{
		Households: 1, Days: days, SamplesPerDay: cfg.SamplesPerDay, Seed: cfg.Seed,
	})
	period := cfg.SamplesPerDay
	var base *grouping.Base
	var err error
	bt := &Timer{}
	bt.Time(func() {
		base, err = grouping.Build(d, grouping.Options{
			ST: cfg.ST, MinLength: period, MaxLength: period,
		})
	})
	if err != nil {
		return E5Row{}, err
	}
	engine, err := core.NewEngine(d, base, core.Options{Band: 2, Mode: core.ModeApprox})
	if err != nil {
		return E5Row{}, err
	}
	var pats []core.Pattern
	qt := &Timer{}
	qt.Time(func() {
		pats, err = engine.SeasonalByIndex(context.Background(), 0, core.SeasonalOptions{
			MinLength: period, MaxLength: period, MinOccurrences: 3, MaxPatterns: 8,
		}, nil)
	})
	if err != nil {
		return E5Row{}, err
	}
	row := E5Row{
		Days:      days,
		SeriesLen: days * cfg.SamplesPerDay,
		BuildMs:   bt.TotalMillis(),
		QueryUs:   qt.MeanMicros(),
		Patterns:  len(pats),
	}
	if len(pats) > 0 {
		best := pats[0]
		row.BestCount = best.Count()
		row.BestGap = best.MeanGap
	}
	// A pattern recovers the daily cycle when its occurrences cover at
	// least half the days at a mean spacing under two days.
	minCount := days / 2
	if minCount < 3 {
		minCount = 3
	}
	for _, p := range pats {
		if p.Count() >= minCount && p.MeanGap <= 2*float64(period) {
			row.PeriodHit = true
			recall := math.Min(1, float64(p.Count())/float64(days))
			if recall > row.Recall {
				row.Recall = recall
			}
		}
	}
	return row, nil
}

// TableE5 renders E5 rows.
func TableE5(rows []E5Row) string {
	tb := NewTable("days", "len", "build_ms", "query_us", "patterns", "best_count", "best_gap", "period_hit", "recall")
	for _, r := range rows {
		tb.AddRow(r.Days, r.SeriesLen, r.BuildMs, r.QueryUs, r.Patterns, r.BestCount, r.BestGap, r.PeriodHit, r.Recall)
	}
	return tb.String()
}
