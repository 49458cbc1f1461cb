package core

import (
	"context"
	"fmt"
	"sort"
)

// SweepPoint is one step of a threshold sweep: how many indexed
// subsequences fall within MaxDist of the query.
type SweepPoint struct {
	MaxDist float64
	Matches int
}

// SimilaritySweep evaluates a range query at several thresholds in one
// pass (paper §2: "showing the changes in the similarity between sequences
// for varying parameters"). The curve lets the analyst pick a threshold by
// seeing where the match population jumps. Thresholds are evaluated
// against the largest value, then counted per step, so the cost is one
// range query, not len(thresholds). The range scan checks the context once
// per group and every ctxCheckStride members, so a cancelled sweep aborts
// within one pruning round with ctx.Err(). callOpts overrides the engine's
// Band (the scan is always certified regardless of Mode); st, when
// non-nil, accumulates the range scan's search statistics.
func (e *Engine) SimilaritySweep(ctx context.Context, q []float64, thresholds []float64, c QueryConstraints, callOpts Options, st *SearchStats) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("core: SimilaritySweep: no thresholds")
	}
	sorted := make([]float64, len(thresholds))
	copy(sorted, thresholds)
	sort.Float64s(sorted)
	maxT := sorted[len(sorted)-1]
	if maxT < 0 {
		return nil, fmt.Errorf("core: SimilaritySweep: negative thresholds")
	}
	ms, err := e.withinThreshold(ctx, q, RangeOptions{MaxDist: maxT, Constraints: c}, callOpts, st)
	if err != nil {
		return nil, err
	}
	// ms is sorted by score; count matches under each threshold by walking
	// both sorted sequences once.
	out := make([]SweepPoint, len(sorted))
	mi := 0
	for ti, th := range sorted {
		for mi < len(ms) && ms[mi].Score <= th+1e-12 {
			mi++
		}
		out[ti] = SweepPoint{MaxDist: th, Matches: mi}
	}
	return out, nil
}

// SearchStats counts the work one similarity query did; exposed so the
// pruning story (paper §3.3 "early pruning of unpromising candidates") is
// measurable on the ONEX side too.
type SearchStats struct {
	// Groups is the number of candidate groups considered.
	Groups int
	// GroupsLBPruned is how many groups were skipped without a member
	// scan: by the LB cascade, by an early-abandoned representative DTW,
	// or by the certified transfer bound / threshold slack (exact and
	// range). A group later revisited by a fallback recompute is
	// un-counted, so the tally stays disjoint from GroupsRefined.
	GroupsLBPruned int
	// RepDTW is the number of representative DTW evaluations started.
	RepDTW int
	// GroupsRefined is how many groups had their members scanned.
	GroupsRefined int
	// Members is the total membership of the refined groups.
	Members int
	// MemberDTW is the number of member DTW evaluations started (the rest
	// were dropped by LB_Kim / LB_Keogh).
	MemberDTW int
}
