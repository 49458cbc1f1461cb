package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/grouping"
)

// RangeOptions configures a range scan (Find with Range set).
type RangeOptions struct {
	// MaxDist is the inclusive score threshold (same units as Match.Score:
	// raw DTW, or length-normalized DTW when the engine ranks normalized).
	MaxDist float64
	// Constraints narrow the candidate set.
	Constraints QueryConstraints
	// Limit caps the number of returned matches (0 = unlimited).
	Limit int
}

// rangeJob is one group to scan plus the per-length precomputation shared
// (read-only) by every group of that length.
type rangeJob struct {
	ref    GroupRef
	g      *grouping.Group
	norm   float64
	rawMax float64
	slack  float64
	qU, qL []float64
}

// withinThreshold returns every indexed subsequence whose DTW score from q
// is at most opts.MaxDist, ordered best-first. This is the paper's §3.3
// range flavour of similarity exploration ("showing the changes in the
// similarity between sequences for varying parameters"): re-running with a
// swept threshold shows how the match set grows.
//
// The search is exact regardless of callOpts.Mode: a group can be skipped
// only when the certified transfer bound proves every member lies beyond
// the threshold. The bound is fixed, so results and statistics are
// identical at every worker count. Each worker checks the context once per
// group and every ctxCheckStride members, so cancelled range scans abort
// within one pruning round.
func (e *Engine) withinThreshold(ctx context.Context, q []float64, opts RangeOptions, callOpts Options, st *SearchStats) ([]Match, error) {
	if len(q) < 2 {
		return nil, fmt.Errorf("core: query length %d too short (need >= 2)", len(q))
	}
	if opts.MaxDist < 0 || math.IsNaN(opts.MaxDist) {
		return nil, fmt.Errorf("core: range query: MaxDist %g must be non-negative", opts.MaxDist)
	}
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: WithinThreshold: %w", err)
	}
	defer release()
	lengths := e.candidateLengths(opts.Constraints)
	if len(lengths) == 0 {
		return nil, ErrNoMatch
	}
	var jobs []rangeJob
	for _, l := range lengths {
		groups := e.base.GroupsOfLength(l)
		if len(groups) == 0 {
			continue
		}
		norm := callOpts.norm(len(q), l)
		qU, qL := dist.Envelope(q, l, callOpts.Band)
		w := dist.EffectiveBand(len(q), l, callOpts.Band)
		slack := float64(2*w+1) * e.base.HalfST(l)
		//onex:nopoll O(1) job enumeration per group; the scan that follows polls per group and per 64 members
		for gi, g := range groups {
			jobs = append(jobs, rangeJob{
				ref:    GroupRef{Length: l, Index: gi},
				g:      g,
				norm:   norm,
				rawMax: opts.MaxDist * norm,
				slack:  slack,
				qU:     qU,
				qL:     qL,
			})
		}
	}

	perGroup, err := scanGroups(ctx, callOpts.Workers, jobs, st,
		func(job rangeJob, st *SearchStats) ([]Match, bool, error) {
			ms, err := e.rangeScanGroup(ctx, q, job, opts.Constraints, callOpts, st)
			return ms, len(ms) > 0, err
		})
	if err != nil {
		return nil, err
	}
	var out []Match
	//onex:nopoll merging already-scanned per-group results; scanGroups polled per group and per 64 members
	for _, ms := range perGroup {
		out = append(out, ms...)
	}
	sort.Slice(out, func(i, j int) bool { return matchBefore(out[i], out[j]) })
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	// Paths only for the returned set.
	return e.finishMatches(q, out, callOpts), nil
}

// rangeScanGroup applies the certified group skip and, when the group
// survives, scans its members against the fixed threshold, returning every
// in-range match, counting into the worker's st.
func (e *Engine) rangeScanGroup(ctx context.Context, q []float64, job rangeJob, c QueryConstraints, callOpts Options, st *SearchStats) ([]Match, error) {
	st.Groups++
	st.RepDTW++
	// Certified skip: if DTW(q, rep) - slack > rawMax then every member is
	// provably outside the threshold.
	repDist := dist.DTWEarlyAbandon(q, job.g.Rep, callOpts.Band, job.rawMax+job.slack)
	if math.IsInf(repDist, 1) {
		st.GroupsLBPruned++
		return nil, nil
	}
	st.GroupsRefined++
	st.Members += len(job.g.Members)
	var out []Match
	for mi, m := range job.g.Members {
		if mi%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if c.excludes(m) {
			continue
		}
		mv := m.Values(e.ds)
		if dist.LBKim(q, mv) > job.rawMax || dist.LBKeogh(mv, job.qU, job.qL, job.rawMax) > job.rawMax {
			continue
		}
		st.MemberDTW++
		d := dist.DTWEarlyAbandon(q, mv, callOpts.Band, job.rawMax)
		// Early abandoning may return a finite value above the bound when no
		// full DP row exceeded it; filter explicitly.
		if math.IsInf(d, 1) || d > job.rawMax {
			continue
		}
		out = append(out, Match{
			Ref:     m,
			Values:  mv,
			Dist:    d,
			Score:   d / job.norm,
			RepDist: repDist,
			Group:   job.ref,
		})
	}
	return out, nil
}
