package core

import (
	"context"
	"math"

	"repro/internal/dist"
)

// Progressive refinement: the top-k search restructured as a resumable
// pipeline with an event sink. One walk serves both entry points:
//
//   - Find (exact mode) drives the pipeline to completion and returns the
//     final answer — the one-shot spelling.
//   - Find with FindOptions.Progress set emits a Snapshot at every
//     emission boundary, so callers (onex.DB.Stream, the NDJSON endpoint)
//     can show the analyst an answer that refines while the walk runs.
//
// The emission boundaries are the points where the search has a coherent
// intermediate answer:
//
//   1. After the approximate phase — the paper's search (best groups by
//      representative distance, refined best-first until the cutoff).
//      This snapshot's matches equal what Find returns in approx mode.
//   2. After every certified refinement wave — the exact walk refines the
//      remaining groups in fixed 16-group waves (parallel.go exactWave),
//      re-checking the certified transfer bound between waves; each wave
//      boundary yields the current top-k plus per-match certification.
//   3. A terminating snapshot (Final = true) whose matches carry warping
//      paths and equal Find's exact-mode result exactly.
//
// The sink is called synchronously on the searching goroutine: a slow
// consumer slows the walk rather than queueing unbounded snapshots — that
// is the backpressure contract, and it keeps cancellation simple (the
// walk polls ctx between waves like everywhere else).

// Snapshot is one emission of the progressive search pipeline.
type Snapshot struct {
	// Seq numbers the emissions of one walk: 0 is the approximate answer,
	// then one snapshot per certified refinement wave, then the final one.
	Seq int
	// Matches is the current top-k, best first. Intermediate snapshots
	// omit warping paths (they cost a full DP matrix each); the final
	// snapshot carries them.
	Matches []Match
	// Certified reports, per match, whether the match provably belongs to
	// the final exact answer with its exact distance: its score is below
	// the certified lower bound of every group the walk has not yet
	// refined. Certification is monotone — once true for a match it stays
	// true — and every flag is true in the final snapshot.
	Certified []bool
	// Stats is the cumulative work since the walk started.
	Stats SearchStats
	// GroupsRemaining is how many candidate groups the walk has neither
	// refined nor certified-skipped yet.
	GroupsRemaining int
	// Wave is the refinement wave this snapshot closes: 0 for the
	// approximate phase, 1..N for the certified waves (the final snapshot
	// repeats N).
	Wave int
	// Final marks the terminating snapshot; its Matches (and Stats) equal
	// the exact-mode Find result.
	Final bool
}

// ProgressFunc receives pipeline snapshots. It is invoked synchronously
// from the search goroutine; blocking in the sink blocks the walk.
type ProgressFunc func(Snapshot)

// progressiveWalk is the resumable state of one top-k search: the scored
// candidate groups, the accumulator, and how far the member-level walk has
// advanced. The approximate phase produces it; the exact continuation
// consumes it.
type progressiveWalk struct {
	e    *Engine
	q    []float64
	k    int
	c    QueryConstraints
	opts Options
	st   *SearchStats

	// cands is sorted by representative score (pruned-last before
	// resolution). cands[:refined] have had their members fully scanned or
	// been certified-skipped; the walk resumes at cands[refined].
	cands   []repCandidate
	top     *topK
	refined int
	// resolved records that every repDist in cands is an exact distance
	// (no +Inf placeholders), which certification needs.
	resolved bool
	// suffixMinLower[i] is the minimum certLower over cands[i:]
	// (suffixMinLower[len(cands)] = +Inf), precomputed by finishExact once
	// the tail order is final so every snapshot certifies in O(k) instead
	// of rescanning the unrefined tail.
	suffixMinLower []float64
	// seq and wave number the snapshots emitted so far.
	seq, wave int
}

// startWalk runs the approximate phase — representative scoring plus the
// best-first member walk with its cutoff — and returns the resumable state.
// The accumulator content equals the approx-mode answer when it returns.
func (e *Engine) startWalk(ctx context.Context, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats) (*progressiveWalk, error) {
	cands, err := e.scoreRepresentatives(ctx, q, k, lengths, opts, st)
	if err != nil {
		return nil, err
	}
	sortCandidates(cands)
	w := &progressiveWalk{e: e, q: q, k: k, c: c, opts: opts, st: st, cands: cands, top: newTopK(k)}

	// Refine within the most promising groups. To fill k results we may
	// need more than k groups when constraints exclude members, so walk
	// groups in rep order until k matches are collected (or candidates are
	// exhausted).
	for i := 0; i < len(cands); i++ {
		if !w.resolved && i >= min(k, maxTrackedK) {
			// End of the deterministic prefix: the k best representatives are
			// exactly scored at every worker count, but beyond them which
			// groups the scoring pass LB-pruned depends on the shard each
			// group fell to. Resolve the tail — recompute every pruned
			// representative and re-sort by true score — so the walk
			// continues in true representative order regardless, and a
			// constrained query that under-fills stops at the same cutoff as
			// the main loop instead of degenerating into a near-exhaustive
			// member scan of every pruned group.
			if err := e.resolveCandidates(ctx, q, cands[i:], opts, st); err != nil {
				return nil, err
			}
			sortCandidates(cands[i:])
			w.resolved = true
		}
		cand := cands[i]
		if w.top.full() && cand.repScore > w.top.worst().Score {
			// A group whose representative already scores worse than every
			// collected member cannot improve an approximate top-k
			// (heuristic: members can score below their representative).
			break
		}
		if err := e.refine(ctx, q, cands[i:i+1], c, w.top, opts, st); err != nil {
			return nil, err
		}
		w.refined = i + 1
	}
	return w, nil
}

// certLower is the certified lower bound for every member s of cand's
// group: DTW(q,s) >= DTW(q,rep) - mu*ED(rep,s) >= repDist - mu*ST_l/2,
// where mu is bounded by the band geometry of the (q,s) grid and ST_l is
// the absolute threshold at the group's length.
func (w *progressiveWalk) certLower(cand repCandidate) float64 {
	bw := dist.EffectiveBand(len(w.q), cand.g.Length, w.opts.Band)
	mu := float64(2*bw + 1)
	return (cand.repDist - mu*w.e.base.HalfST(cand.g.Length)) / cand.norm
}

// snapshot assembles the current emission. Certification is computed only
// once every representative distance is resolved: an unresolved (+Inf)
// candidate's true certified bound is unknown, and guessing it could
// certify a match unsoundly.
func (w *progressiveWalk) snapshot(final bool) Snapshot {
	var ms []Match
	if final {
		ms = w.e.finishMatches(w.q, w.top.sorted(), w.opts)
	} else {
		ms = w.top.sorted()
	}
	cert := make([]bool, len(ms))
	switch {
	case final:
		for i := range cert {
			cert[i] = true
		}
	case w.resolved:
		// The minimum certified lower bound over the unrefined tail: from
		// the precomputed suffix array when finishExact has frozen the tail
		// order, by a one-off scan for the single pre-wave emission.
		minLower := math.Inf(1)
		if w.suffixMinLower != nil {
			minLower = w.suffixMinLower[w.refined]
		} else {
			for i := w.refined; i < len(w.cands); i++ {
				if l := w.certLower(w.cands[i]); l < minLower {
					minLower = l
				}
			}
		}
		for i, m := range ms {
			cert[i] = m.Score < minLower
		}
	}
	var st SearchStats
	if w.st != nil {
		st = *w.st
	}
	s := Snapshot{
		Seq:             w.seq,
		Matches:         ms,
		Certified:       cert,
		Stats:           st,
		GroupsRemaining: len(w.cands) - w.refined,
		Wave:            w.wave,
		Final:           final,
	}
	w.seq++
	return s
}

// finishExact resumes the walk to a certified-exact answer: it resolves
// any still-pruned representative distances, re-sorts the unwalked tail by
// true score, and refines the remaining groups in fixed-size waves. After
// each wave the certified transfer bound re-filters the tail against the
// tightened top-k, and emit (when non-nil) receives a snapshot. The wave
// size is a constant (parallel.go exactWave), never derived from the
// worker count, so the refined set, the answer, and the certification
// flags are identical at every Workers setting.
func (w *progressiveWalk) finishExact(ctx context.Context, emit ProgressFunc) error {
	e := w.e
	// The approximate phase resolves the tail only when its walk reaches
	// it; a walk that filled k from the first groups leaves the rest
	// LB-pruned. The kth tracker also saturates (maxTrackedK), so on large
	// bases some representatives are abandoned regardless. Recompute them
	// all so the certified bound below sees true distances, and walk the
	// tail in true representative-score order.
	if err := e.resolveCandidates(ctx, w.q, w.cands[w.refined:], w.opts, w.st); err != nil {
		return err
	}
	sortCandidates(w.cands[w.refined:])
	w.resolved = true
	if emit != nil {
		// The tail order is now final, so each candidate's certified bound
		// is fixed: one backward pass gives every snapshot its minimum
		// over the unrefined tail in O(1).
		w.suffixMinLower = make([]float64, len(w.cands)+1)
		w.suffixMinLower[len(w.cands)] = math.Inf(1)
		for i := len(w.cands) - 1; i >= 0; i-- {
			w.suffixMinLower[i] = math.Min(w.suffixMinLower[i+1], w.certLower(w.cands[i]))
		}
	}

	// The walk proceeds in fixed-size waves: between waves the certified
	// transfer bound is re-evaluated against the tightened top-k, and
	// within a wave every surviving group is refined.
	wave := make([]repCandidate, 0, exactWave)
	for w.refined < len(w.cands) {
		// Collect the next wave of groups the certified bound cannot skip.
		wave = wave[:0]
		idx := w.refined
		for idx < len(w.cands) && len(wave) < exactWave {
			if err := ctx.Err(); err != nil {
				return err
			}
			cand := w.cands[idx]
			idx++
			if w.top.full() && w.certLower(cand) > w.top.worst().Score {
				if w.st != nil {
					w.st.GroupsLBPruned++
				}
				continue // provably cannot improve the top-k
			}
			wave = append(wave, cand)
		}
		if err := e.refine(ctx, w.q, wave, w.c, w.top, w.opts, w.st); err != nil {
			return err
		}
		w.refined = idx
		if len(wave) > 0 && emit != nil {
			w.wave++
			emit(w.snapshot(false))
		}
	}
	return nil
}
