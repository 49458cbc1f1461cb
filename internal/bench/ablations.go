package bench

import (
	"fmt"
	"math"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/grouping"
	"repro/internal/ts"
	"repro/internal/ucrsuite"
)

// The ablations quantify the design choices DESIGN.md §5 calls out:
//
//	A1  the repair pass (invariant enforcement) — cost and effect
//	A2  the Sakoe-Chiba band — latency/accuracy trade-off
//	A3  the lower-bound cascade — what each filter stage prunes

// A1Row measures one build configuration.
type A1Row struct {
	Config     string
	BuildMs    float64
	Groups     int
	Violations int     // members beyond ST*l/2 of their representative
	MaxExcess  float64 // worst violation as a fraction of the radius bound
}

// RunA1 builds the same dataset with and without the repair pass and
// counts invariant violations in each result. The paper's construction
// argument (§3.1) requires the ST/2 radius bound; raw online clustering
// violates it for early members after centroid drift.
func RunA1(seed int64) ([]A1Row, error) {
	if seed == 0 {
		seed = 71
	}
	d := gen.RandomWalks(gen.WalkOptions{Num: 40, Length: 64, Seed: seed})
	if err := ts.NormalizeMinMax(d); err != nil {
		return nil, err
	}
	rows := make([]A1Row, 0, 2)
	for _, skip := range []bool{false, true} {
		label := "repair=on"
		if skip {
			label = "repair=off"
		}
		var base *grouping.Base
		var err error
		tm := &Timer{}
		tm.Time(func() {
			base, err = grouping.Build(d, grouping.Options{
				ST: 0.05, MinLength: 8, MaxLength: 16, SkipRepair: skip,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("bench: A1 %s: %w", label, err)
		}
		row := A1Row{Config: label, BuildMs: tm.TotalMillis(), Groups: base.NumGroups()}
		for _, l := range base.Lengths() {
			half := base.HalfST(l)
			for _, g := range base.GroupsOfLength(l) {
				for _, m := range g.Members {
					r := dist.ED(m.Values(d), g.Rep)
					if r > half+1e-9 {
						row.Violations++
						if excess := (r - half) / half; excess > row.MaxExcess {
							row.MaxExcess = excess
						}
					}
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableA1 renders A1 rows.
func TableA1(rows []A1Row) string {
	tb := NewTable("config", "build_ms", "groups", "violations", "max_excess")
	for _, r := range rows {
		tb.AddRow(r.Config, r.BuildMs, r.Groups, r.Violations, r.MaxExcess)
	}
	return tb.String()
}

// A2Row measures one band width.
type A2Row struct {
	Band      int // -1 = unconstrained
	QueryUs   float64
	DistRatio float64 // returned / exact-at-same-band distance
	Top1      float64
}

// RunA2 sweeps the Sakoe-Chiba band width on the E1 workload, measuring
// latency and retrieval quality at each width. Exactness is judged against
// a brute-force scan *at the same band*, isolating the approximation error
// of the base from the modelling choice of the band itself.
func RunA2(seed int64) ([]A2Row, error) {
	if seed == 0 {
		seed = 73
	}
	const n, seriesLen, qlen = 50, 128, 32
	full := gen.CBF(gen.CBFOptions{PerClass: (n + 2) / 3, Length: seriesLen, Seed: seed})
	d := ts.NewDataset(full.Name)
	for i := 0; i < n && i < full.Len(); i++ {
		d.MustAdd(full.Series[i])
	}
	if err := ts.NormalizeMinMax(d); err != nil {
		return nil, err
	}
	base, err := grouping.Build(d, grouping.Options{ST: 0.16, MinLength: qlen, MaxLength: qlen})
	if err != nil {
		return nil, err
	}
	heldOut := gen.CBF(gen.CBFOptions{PerClass: 4, Length: seriesLen, Seed: seed + 1000})
	queries := HeldOutQueries(d, heldOut, 10, qlen, seed+7)

	var rows []A2Row
	for _, band := range []int{0, 2, 4, 8, 16, -1} {
		engine, err := core.NewEngine(d, base, core.Options{Band: band, Mode: core.ModeApprox})
		if err != nil {
			return nil, err
		}
		row := A2Row{Band: band}
		var tm Timer
		agree, ratioSum := 0, 0.0
		for _, q := range queries {
			var m core.Match
			tm.Time(func() {
				m, err = bestMatch(engine, q)
			})
			if err != nil {
				return nil, err
			}
			exact, err := bruteforce.BestMatch(d, q, bruteforce.Options{Band: band, EarlyAbandon: true})
			if err != nil {
				return nil, err
			}
			if math.Abs(m.Dist-exact.Dist) <= 1e-9 {
				agree++
			}
			ratioSum += safeRatio(m.Dist, exact.Dist)
		}
		row.QueryUs = tm.MeanMicros()
		row.Top1 = float64(agree) / float64(len(queries))
		row.DistRatio = ratioSum / float64(len(queries))
		rows = append(rows, row)
	}
	return rows, nil
}

// TableA2 renders A2 rows.
func TableA2(rows []A2Row) string {
	tb := NewTable("band", "query_us", "top1", "dist_ratio")
	for _, r := range rows {
		band := fmt.Sprint(r.Band)
		if r.Band < 0 {
			band = "inf"
		}
		tb.AddRow(band, r.QueryUs, r.Top1, r.DistRatio)
	}
	return tb.String()
}

// A3Row reports the UCR-Suite cascade's per-stage pruning on one workload.
type A3Row struct {
	N            int
	Windows      int
	PrunedKim    float64 // fraction of windows dropped by LB_Kim
	PrunedKeoghQ float64
	PrunedKeoghC float64
	DTWComputed  float64 // fraction reaching full DTW
	DTWAbandoned float64 // of all windows, abandoned during DTW
}

// RunA3 measures what each stage of the lower-bound cascade prunes, the
// paper's "indexing of time series using bounding envelopes [and] early
// pruning of unpromising candidates" made visible.
func RunA3(seed int64) ([]A3Row, error) {
	if seed == 0 {
		seed = 79
	}
	var rows []A3Row
	for _, n := range []int{25, 100} {
		per := (n + 2) / 3
		full := gen.CBF(gen.CBFOptions{PerClass: per, Length: 128, Seed: seed})
		d := ts.NewDataset(full.Name)
		for i := 0; i < n && i < full.Len(); i++ {
			d.MustAdd(full.Series[i])
		}
		if err := ts.NormalizeMinMax(d); err != nil {
			return nil, err
		}
		heldOut := gen.CBF(gen.CBFOptions{PerClass: 4, Length: 128, Seed: seed + 1000})
		queries := HeldOutQueries(d, heldOut, 10, 32, seed+7)
		agg := A3Row{N: n}
		totalWindows := 0
		for _, q := range queries {
			res, err := ucrsuite.BestMatch(d, q, ucrsuite.Options{Band: 4})
			if err != nil {
				return nil, err
			}
			st := res.Stats
			totalWindows += st.Windows
			agg.PrunedKim += float64(st.PrunedKim)
			agg.PrunedKeoghQ += float64(st.PrunedKeoghQ)
			agg.PrunedKeoghC += float64(st.PrunedKeoghC)
			agg.DTWComputed += float64(st.DTWComputed)
			agg.DTWAbandoned += float64(st.DTWAbandoned)
		}
		agg.Windows = totalWindows
		tw := float64(totalWindows)
		agg.PrunedKim /= tw
		agg.PrunedKeoghQ /= tw
		agg.PrunedKeoghC /= tw
		agg.DTWComputed /= tw
		agg.DTWAbandoned /= tw
		rows = append(rows, agg)
	}
	return rows, nil
}

// TableA3 renders A3 rows.
func TableA3(rows []A3Row) string {
	tb := NewTable("N", "windows", "kim_pruned", "keoghQ_pruned", "keoghC_pruned", "dtw_run", "dtw_abandoned")
	for _, r := range rows {
		tb.AddRow(r.N, r.Windows, r.PrunedKim, r.PrunedKeoghQ, r.PrunedKeoghC, r.DTWComputed, r.DTWAbandoned)
	}
	return tb.String()
}
