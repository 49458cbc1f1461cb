package bench

import (
	"fmt"
	"math"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// E2Config parameterizes the accuracy comparison (paper claim: "up to 19%
// more accurate results [than approximate embedding methods]").
type E2Config struct {
	// QueryLen is the query/candidate length.
	QueryLen int
	// Queries per dataset.
	Queries int
	// Band shared by all systems.
	Band int
	// ST for the ONEX base (0 = auto like E1).
	ST float64
	// Refine budget for the embedding baseline; 0 matches it to the ONEX
	// base's mean group size, equalizing the refine work.
	Refine int
	// NumRefs is the embedding dimensionality (default 8).
	NumRefs int
	// Seed fixes generation.
	Seed int64
}

// DefaultE2 is the configuration the EXPERIMENTS.md table uses.
func DefaultE2() E2Config {
	return E2Config{QueryLen: 32, Queries: 15, Band: 4, Seed: 2}
}

// E2Row is one dataset's accuracy outcome.
type E2Row struct {
	Dataset      string
	Windows      int
	RefineBudget int     // candidates each approximate method re-scores
	ONEXTop1     float64 // fraction where ONEX returned the exact best
	EmbedTop1    float64 // same for the embedding baseline
	ONEXRatio    float64 // mean returned/exact distance (1 = perfect)
	EmbedRatio   float64
	AccuracyGain float64 // (ONEXTop1 - EmbedTop1) / max(EmbedTop1, eps) * 100
}

// RunE2 measures top-1 agreement with the exact DTW answer for ONEX
// (approximate mode) and the embedding filter-and-refine baseline on the
// labelled synthetic families, at an equalized refinement budget.
func RunE2(cfg E2Config) ([]E2Row, error) {
	if cfg.QueryLen == 0 {
		cfg = DefaultE2()
	}
	datasets := []*ts.Dataset{
		gen.CBF(gen.CBFOptions{PerClass: 12, Length: 96, Seed: cfg.Seed}),
		gen.WarpedSines(gen.SineOptions{PerClass: 12, Length: 96, Classes: 3, Seed: cfg.Seed + 1}),
	}
	rows := make([]E2Row, 0, len(datasets))
	for _, d := range datasets {
		row, err := runE2One(cfg, d)
		if err != nil {
			return nil, fmt.Errorf("bench: E2 %s: %w", d.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE2One(cfg E2Config, d *ts.Dataset) (E2Row, error) {
	if err := ts.NormalizeMinMax(d); err != nil {
		return E2Row{}, err
	}
	st := cfg.ST
	if st <= 0 {
		st = 0.16 // per-point threshold sized to CBF noise (see E1)
	}
	base, err := grouping.Build(d, grouping.Options{
		ST: st, MinLength: cfg.QueryLen, MaxLength: cfg.QueryLen,
	})
	if err != nil {
		return E2Row{}, err
	}
	engine, err := core.NewEngine(d, base, core.Options{Band: cfg.Band, Mode: core.ModeApprox})
	if err != nil {
		return E2Row{}, err
	}
	refine := cfg.Refine
	if refine <= 0 {
		refine = int(math.Ceil(base.CompactionRatio()))
		if refine < 1 {
			refine = 1
		}
	}
	numRefs := cfg.NumRefs
	if numRefs <= 0 {
		numRefs = 8
	}
	ix, err := embed.Build(d, []int{cfg.QueryLen}, embed.Options{
		NumRefs: numRefs, Refine: refine, Band: cfg.Band, Seed: cfg.Seed + 5,
	})
	if err != nil {
		return E2Row{}, err
	}
	// Held-out instances from the same generator family (fresh seed), the
	// UCR-style evaluation protocol; see E1.
	heldOut := regenerate(d, cfg)
	queries := HeldOutQueries(d, heldOut, cfg.Queries, cfg.QueryLen, cfg.Seed+9)

	row := E2Row{
		Dataset:      d.Name,
		Windows:      d.NumSubsequences(cfg.QueryLen, cfg.QueryLen),
		RefineBudget: refine,
	}
	var onexHits, embedHits int
	var onexRatio, embedRatio float64
	for _, q := range queries {
		exact, err := bruteforce.BestMatch(d, q, bruteforce.Options{Band: cfg.Band, EarlyAbandon: true})
		if err != nil {
			return E2Row{}, err
		}
		om, err := bestMatch(engine, q)
		if err != nil {
			return E2Row{}, err
		}
		em, err := ix.BestMatch(q)
		if err != nil {
			return E2Row{}, err
		}
		if math.Abs(om.Dist-exact.Dist) <= 1e-9 {
			onexHits++
		}
		if math.Abs(em.Dist-exact.Dist) <= 1e-9 {
			embedHits++
		}
		onexRatio += safeRatio(om.Dist, exact.Dist)
		embedRatio += safeRatio(em.Dist, exact.Dist)
	}
	nq := float64(len(queries))
	row.ONEXTop1 = float64(onexHits) / nq
	row.EmbedTop1 = float64(embedHits) / nq
	row.ONEXRatio = onexRatio / nq
	row.EmbedRatio = embedRatio / nq
	denom := row.EmbedTop1
	if denom < 1e-9 {
		denom = 1 / nq // avoid div-by-zero; gain relative to one hit
	}
	row.AccuracyGain = (row.ONEXTop1 - row.EmbedTop1) / denom * 100
	return row, nil
}

// regenerate produces a held-out dataset of the same family as d (raw
// units; HeldOutQueries handles the normalization mapping).
func regenerate(d *ts.Dataset, cfg E2Config) *ts.Dataset {
	if d.Name == "cbf" {
		return gen.CBF(gen.CBFOptions{PerClass: 12, Length: 96, Seed: cfg.Seed + 1000})
	}
	return gen.WarpedSines(gen.SineOptions{PerClass: 12, Length: 96, Classes: 3, Seed: cfg.Seed + 1001})
}

func safeRatio(got, exact float64) float64 {
	if exact <= 0 {
		if got <= 1e-12 {
			return 1
		}
		return 2 // arbitrary penalty: exact found a zero-distance match, we didn't
	}
	return got / exact
}

// TableE2 renders E2 rows.
func TableE2(rows []E2Row) string {
	tb := NewTable("dataset", "windows", "refine", "onex_top1", "embed_top1",
		"onex_ratio", "embed_ratio", "accuracy_gain_%")
	for _, r := range rows {
		tb.AddRow(r.Dataset, r.Windows, r.RefineBudget, r.ONEXTop1, r.EmbedTop1,
			r.ONEXRatio, r.EmbedRatio, r.AccuracyGain)
	}
	return tb.String()
}
