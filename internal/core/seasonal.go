package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/grouping"
	"repro/internal/ts"
)

// Pattern is one seasonal-query result: a set of non-overlapping windows of
// a single series that all belong to one ONEX similarity group, i.e. are
// mutually within the similarity threshold. This is the paper's §3.3
// "seasonal similarity" operation and the substance of the Fig 4 view.
type Pattern struct {
	// SeriesIndex identifies the series the pattern recurs in.
	SeriesIndex int
	// Length is the motif length.
	Length int
	// Occurrences are the non-overlapping instances, sorted by start.
	Occurrences []ts.SubSeq
	// Group is the similarity group the occurrences share.
	Group GroupRef
	// Rep is the shared group representative (the motif shape).
	Rep []float64
	// MeanGap is the mean distance in samples between consecutive
	// occurrence starts; for a planted period p this approximates p.
	MeanGap float64
}

// Count returns the number of occurrences.
func (p Pattern) Count() int { return len(p.Occurrences) }

// SeasonalOptions configures a seasonal query.
type SeasonalOptions struct {
	// MinLength/MaxLength bound the motif lengths examined; zero values
	// mean the base's full range.
	MinLength, MaxLength int
	// MinOccurrences is the smallest recurrence count to report (default 2).
	MinOccurrences int
	// MaxPatterns caps the result list (default 16, <=0 means default).
	MaxPatterns int
	// Dedup suppresses patterns that a longer reported pattern already
	// explains: P is dropped when some pattern Q with Q.Length > P.Length
	// covers at least 80% of P's occurrences (each occurrence of P
	// overlapping some occurrence of Q). Multi-length mining otherwise
	// reports every sub-window of a long motif as its own pattern.
	Dedup bool
	// Workers bounds the worker pool the group scan is sharded across
	// (values < 1 select GOMAXPROCS, 1 runs it inline). The mine is
	// a pure read of the base, so results and statistics are identical at
	// every worker count.
	Workers int
}

// Seasonal finds repeating patterns within the named series by mining the
// ONEX base: any group holding two or more non-overlapping windows of the
// series is a recurring motif, with no additional distance computation
// (the base already encodes the similarity).
//
// Results are ranked by occurrence count (descending), then by motif
// length (descending: longer recurring shapes are more informative), then
// by earliest occurrence. The context is checked once per candidate group
// and every ctxCheckStride members, so a cancelled mine aborts within one
// pruning round with ctx.Err(). st, when non-nil, accumulates the groups
// and members visited.
func (e *Engine) Seasonal(ctx context.Context, seriesName string, opts SeasonalOptions, st *SearchStats) ([]Pattern, error) {
	si := e.ds.IndexOf(seriesName)
	if si < 0 {
		return nil, fmt.Errorf("core: Seasonal: series %q not in dataset %q", seriesName, e.ds.Name)
	}
	return e.SeasonalByIndex(ctx, si, opts, st)
}

// SeasonalByIndex is Seasonal addressed by series position.
func (e *Engine) SeasonalByIndex(ctx context.Context, si int, opts SeasonalOptions, st *SearchStats) ([]Pattern, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if si < 0 || si >= e.ds.Len() {
		return nil, fmt.Errorf("core: Seasonal: series index %d out of range", si)
	}
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: Seasonal: %w", err)
	}
	defer release()
	minL, maxL := opts.MinLength, opts.MaxLength
	if minL <= 0 {
		minL = e.base.MinLength
	}
	if maxL <= 0 {
		maxL = e.base.MaxLength
	}
	minOcc := opts.MinOccurrences
	if minOcc < 2 {
		minOcc = 2
	}
	maxPatterns := opts.MaxPatterns
	if maxPatterns <= 0 {
		maxPatterns = 16
	}

	type job struct {
		l, gi int
		g     *grouping.Group
	}
	var jobs []job
	for _, l := range e.base.Lengths() {
		if l < minL || l > maxL {
			continue
		}
		//onex:nopoll O(1) job enumeration per group; the scan that follows polls per group and per 64 members
		for gi, g := range e.base.GroupsOfLength(l) {
			jobs = append(jobs, job{l: l, gi: gi, g: g})
		}
	}
	// mineGroup scans one group for this series' recurrences, counting
	// into the worker's st.
	mineGroup := func(j job, st *SearchStats) (Pattern, bool, error) {
		st.Groups++
		st.Members += len(j.g.Members)
		// Collect this series' members of the group.
		var mine []ts.SubSeq
		for mi, m := range j.g.Members {
			if mi%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return Pattern{}, false, err
				}
			}
			if m.Series == si {
				mine = append(mine, m)
			}
		}
		if len(mine) < minOcc {
			return Pattern{}, false, nil
		}
		occ := selectNonOverlapping(mine)
		if len(occ) < minOcc {
			return Pattern{}, false, nil
		}
		return Pattern{
			SeriesIndex: si,
			Length:      j.l,
			Occurrences: occ,
			Group:       GroupRef{Length: j.l, Index: j.gi},
			Rep:         j.g.Rep,
			MeanGap:     meanGap(occ),
		}, true, nil
	}

	patterns, err := scanGroups(ctx, opts.Workers, jobs, st, mineGroup)
	if err != nil {
		return nil, err
	}
	sort.Slice(patterns, func(i, j int) bool {
		if len(patterns[i].Occurrences) != len(patterns[j].Occurrences) {
			return len(patterns[i].Occurrences) > len(patterns[j].Occurrences)
		}
		if patterns[i].Length != patterns[j].Length {
			return patterns[i].Length > patterns[j].Length
		}
		return patterns[i].Occurrences[0].Start < patterns[j].Occurrences[0].Start
	})
	if opts.Dedup {
		patterns = dedupePatterns(patterns)
	}
	if len(patterns) > maxPatterns {
		patterns = patterns[:maxPatterns]
	}
	return patterns, nil
}

// dedupePatterns drops patterns whose occurrences are mostly covered by a
// longer kept pattern. Quadratic in the pattern count, which MaxPatterns
// keeps small.
func dedupePatterns(patterns []Pattern) []Pattern {
	kept := patterns[:0]
	for _, p := range patterns {
		subsumed := false
		for _, q := range kept {
			if q.Length <= p.Length {
				continue
			}
			covered := 0
			for _, po := range p.Occurrences {
				for _, qo := range q.Occurrences {
					if po.Overlaps(qo) {
						covered++
						break
					}
				}
			}
			if float64(covered) >= 0.8*float64(len(p.Occurrences)) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			kept = append(kept, p)
		}
	}
	return kept
}

// selectNonOverlapping performs greedy interval scheduling by start order:
// windows all share one length, so earliest-start greedy maximizes the
// count of disjoint occurrences.
func selectNonOverlapping(ms []ts.SubSeq) []ts.SubSeq {
	sorted := make([]ts.SubSeq, len(ms))
	copy(sorted, ms)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := sorted[:0]
	lastEnd := -1
	for _, m := range sorted {
		if m.Start >= lastEnd {
			out = append(out, m)
			lastEnd = m.End()
		}
	}
	return out
}

func meanGap(occ []ts.SubSeq) float64 {
	if len(occ) < 2 {
		return 0
	}
	total := 0
	for i := 1; i < len(occ); i++ {
		total += occ[i].Start - occ[i-1].Start
	}
	return float64(total) / float64(len(occ)-1)
}
