package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// CommonPattern is a shape that recurs across several different series:
// the "critical relationships between ... time series" of the paper's
// introduction, mined directly from the base (a group whose members span
// many series is a shared shape by construction).
type CommonPattern struct {
	// Group locates the similarity group.
	Group GroupRef
	// Length is the shape length.
	Length int
	// Rep is the shared shape (group representative).
	Rep []float64
	// SeriesCount is the number of distinct series represented.
	SeriesCount int
	// Occurrences holds one exemplar window per series (the member
	// closest to the representative), sorted by series index.
	Occurrences []ts.SubSeq
	// TotalMembers is the full group cardinality.
	TotalMembers int
}

// CommonOptions configures CommonPatterns.
type CommonOptions struct {
	// MinSeries is the smallest number of distinct series a shape must
	// span to be reported (default 2).
	MinSeries int
	// MinLength/MaxLength bound the shape lengths; zero means the base's
	// range.
	MinLength, MaxLength int
	// MaxPatterns caps the result list (default 16).
	MaxPatterns int
	// Workers bounds the worker pool the group scan is sharded across
	// (values < 1 select GOMAXPROCS, 1 runs it inline). The mine is
	// a pure read of the base, so results and statistics are identical at
	// every worker count.
	Workers int
}

// CommonPatterns finds shapes shared across series, ranked by the number
// of distinct series spanned (descending), then by total cardinality. No
// distance computation is needed: the base already encodes the mutual
// similarity, so this is a pure scan of group membership. The context is
// checked once per group and every ctxCheckStride members (the per-member
// representative-ED scan is the expensive part), so a cancelled mine
// aborts within one pruning round with ctx.Err(). st, when non-nil,
// accumulates the groups and members visited.
func (e *Engine) CommonPatterns(ctx context.Context, opts CommonOptions, st *SearchStats) ([]CommonPattern, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: CommonPatterns: %w", err)
	}
	defer release()
	minSeries := opts.MinSeries
	if minSeries < 2 {
		minSeries = 2
	}
	minL, maxL := opts.MinLength, opts.MaxLength
	if minL <= 0 {
		minL = e.base.MinLength
	}
	if maxL <= 0 {
		maxL = e.base.MaxLength
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
	// mineGroup reduces one group to its per-series exemplars, counting
	// into the worker's st.
	mineGroup := func(j job, st *SearchStats) (CommonPattern, bool, error) {
		st.Groups++
		st.Members += len(j.g.Members)
		perSeries := map[int]ts.SubSeq{}
		perSeriesD := map[int]float64{}
		for mi, m := range j.g.Members {
			if mi%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return CommonPattern{}, false, err
				}
			}
			d := dist.ED(m.Values(e.ds), j.g.Rep)
			if prev, ok := perSeriesD[m.Series]; !ok || d < prev {
				perSeries[m.Series] = m
				perSeriesD[m.Series] = d
			}
		}
		if len(perSeries) < minSeries {
			return CommonPattern{}, false, nil
		}
		occ := make([]ts.SubSeq, 0, len(perSeries))
		//onex:detorder occ is sorted by Series immediately below, so iteration order cannot reach the output
		for _, m := range perSeries {
			occ = append(occ, m)
		}
		sort.Slice(occ, func(i, j int) bool { return occ[i].Series < occ[j].Series })
		return CommonPattern{
			Group:        GroupRef{Length: j.l, Index: j.gi},
			Length:       j.l,
			Rep:          j.g.Rep,
			SeriesCount:  len(perSeries),
			Occurrences:  occ,
			TotalMembers: len(j.g.Members),
		}, true, nil
	}

	out, err := scanGroups(ctx, opts.Workers, jobs, st, mineGroup)
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SeriesCount != out[j].SeriesCount {
			return out[i].SeriesCount > out[j].SeriesCount
		}
		if out[i].TotalMembers != out[j].TotalMembers {
			return out[i].TotalMembers > out[j].TotalMembers
		}
		return out[i].Length > out[j].Length
	})
	if len(out) > maxPatterns {
		out = out[:maxPatterns]
	}
	return out, nil
}
