package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// ctxCheckStride bounds how many group members are scanned between two
// context-cancellation checks inside the refinement loops.
const ctxCheckStride = 64

// QueryConstraints narrows a similarity search.
type QueryConstraints struct {
	// MinLength/MaxLength bound candidate subsequence lengths; zero values
	// mean the full base range.
	MinLength, MaxLength int
	// ExcludeSeries skips candidates from the named series (used by the
	// demo to avoid returning the query's own source series). Nil means no
	// exclusion. Values are series indices.
	ExcludeSeries map[int]bool
	// ExcludeOverlap skips candidates overlapping this window (used by
	// self-queries so the best match is not the query itself). Zero value
	// excludes nothing.
	ExcludeOverlap ts.SubSeq
}

func (c QueryConstraints) excludes(ref ts.SubSeq) bool {
	if c.ExcludeSeries != nil && c.ExcludeSeries[ref.Series] {
		return true
	}
	if c.ExcludeOverlap.Length > 0 && ref.Overlaps(c.ExcludeOverlap) {
		return true
	}
	return false
}

// search is the shared top-k entry point for k >= 1 (Find clamps K): it
// validates the query, resolves
// candidate lengths, and dispatches on the per-call mode. It honours ctx
// cancellation between pruning rounds (per group and per member batch) and
// returns ctx.Err() when the caller gave up. progress, when non-nil,
// receives pipeline snapshots in exact mode (see stream.go); approx-mode
// calls never invoke it — the approximate answer is the whole result.
func (e *Engine) search(ctx context.Context, q []float64, k int, c QueryConstraints, opts Options, st *SearchStats, progress ProgressFunc) ([]Match, error) {
	if len(q) < 2 {
		return nil, fmt.Errorf("core: query length %d too short (need >= 2)", len(q))
	}
	// Pin mmap-backed values for the whole walk (no-op for heap datasets):
	// the backing mapping cannot be released while the search dereferences
	// member windows.
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: search: %w", err)
	}
	defer release()
	lengths := e.candidateLengths(c)
	if len(lengths) == 0 {
		return nil, ErrNoMatch
	}
	switch opts.Mode {
	case ModeExact:
		return e.kbestExact(ctx, q, k, c, lengths, opts, st, progress)
	default:
		return e.kbestApprox(ctx, q, k, c, lengths, opts, st)
	}
}

func (e *Engine) candidateLengths(c QueryConstraints) []int {
	minL, maxL := c.MinLength, c.MaxLength
	if minL <= 0 {
		minL = e.base.MinLength
	}
	if maxL <= 0 {
		maxL = e.base.MaxLength
	}
	var out []int
	for _, l := range e.base.Lengths() {
		if l >= minL && l <= maxL {
			out = append(out, l)
		}
	}
	return out
}

// norm returns the score divisor for candidates of length l: 1 for raw
// ranking, max(qlen, l) for length-normalized ranking.
func (o Options) norm(qlen, l int) float64 {
	if !o.LengthNorm {
		return 1
	}
	if qlen > l {
		return float64(qlen)
	}
	return float64(l)
}

// repCandidate is a group scored by its representative's DTW distance.
type repCandidate struct {
	ref      GroupRef
	g        *grouping.Group
	repDist  float64 // raw DTW(q, rep); +Inf when pruned
	repScore float64 // repDist / norm
	norm     float64
}

// sortCandidates orders group candidates by representative score, pruned
// (+Inf) candidates last, breaking ties by group identity so the walk order
// — and with it the refined set — is deterministic at every worker count.
func sortCandidates(cands []repCandidate) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if a.repScore != b.repScore {
			return a.repScore < b.repScore
		}
		if a.ref.Length != b.ref.Length {
			return a.ref.Length < b.ref.Length
		}
		return a.ref.Index < b.ref.Index
	})
}

// kbestApprox implements the paper's search: pick the top-k groups by
// representative score, then take the best members inside them. It is the
// approximate phase of the progressive pipeline (stream.go), stopped after
// its first emission boundary.
func (e *Engine) kbestApprox(ctx context.Context, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats) ([]Match, error) {
	w, err := e.startWalk(ctx, q, k, c, lengths, opts, st)
	if err != nil {
		return nil, err
	}
	if w.top.len() == 0 {
		return nil, ErrNoMatch
	}
	return e.finishMatches(q, w.top.sorted(), opts), nil
}

// kbestExact drives the progressive pipeline to its certified end: the
// approximate phase seeds the accumulator, then the remaining groups are
// refined in fixed-size waves under the certified transfer bound
// (stream.go finishExact); the result is the true top-k. progress, when
// non-nil, receives a snapshot after the approximate phase, after every
// wave, and a final one equal to the returned matches.
func (e *Engine) kbestExact(ctx context.Context, q []float64, k int, c QueryConstraints, lengths []int, opts Options, st *SearchStats, progress ProgressFunc) ([]Match, error) {
	w, err := e.startWalk(ctx, q, k, c, lengths, opts, st)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress(w.snapshot(false))
	}
	if err := w.finishExact(ctx, progress); err != nil {
		return nil, err
	}
	if w.top.len() == 0 {
		return nil, ErrNoMatch
	}
	final := w.snapshot(true)
	if progress != nil {
		progress(final)
	}
	return final.Matches, nil
}

// boundScore is the accumulator's current k-th best score (+Inf until
// full), the member-level pruning bound.
func (t *topK) boundScore() float64 {
	if t.full() {
		return t.worst().Score
	}
	return math.Inf(1)
}

// finishMatches fills in warping paths (presentation data) for the final
// result set only, so inner loops never pay the full-matrix cost.
func (e *Engine) finishMatches(q []float64, ms []Match, opts Options) []Match {
	for i := range ms {
		_, path := dist.DTWPath(q, ms[i].Values, opts.Band)
		ms[i].Path = path
	}
	return ms
}

// matchBefore is the total result order: ascending Score, ties broken by
// subsequence identity. A total order keeps accumulators (and final result
// lists) deterministic regardless of offer order, which parallel member
// refinement depends on.
func matchBefore(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	if a.Ref.Series != b.Ref.Series {
		return a.Ref.Series < b.Ref.Series
	}
	if a.Ref.Start != b.Ref.Start {
		return a.Ref.Start < b.Ref.Start
	}
	return a.Ref.Length < b.Ref.Length
}

// topK accumulates the k best matches seen, deduplicating by Ref.
type topK struct {
	k  int
	ms []Match
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) len() int   { return len(t.ms) }
func (t *topK) full() bool { return len(t.ms) >= t.k }
func (t *topK) worst() Match {
	return t.ms[len(t.ms)-1]
}

func (t *topK) offer(m Match) {
	for i := range t.ms {
		if t.ms[i].Ref == m.Ref {
			if m.Score < t.ms[i].Score {
				t.ms[i] = m
				t.restore()
			}
			return
		}
	}
	if len(t.ms) < t.k {
		t.ms = append(t.ms, m)
		t.restore()
		return
	}
	if matchBefore(m, t.ms[len(t.ms)-1]) {
		t.ms[len(t.ms)-1] = m
		t.restore()
	}
}

// restore re-sorts the small accumulator (k is tiny; insertion sort).
func (t *topK) restore() {
	for i := len(t.ms) - 1; i > 0; i-- {
		if matchBefore(t.ms[i], t.ms[i-1]) {
			t.ms[i], t.ms[i-1] = t.ms[i-1], t.ms[i]
		} else {
			break
		}
	}
}

func (t *topK) sorted() []Match {
	out := make([]Match, len(t.ms))
	copy(out, t.ms)
	return out
}

// clone seeds a worker-local accumulator with t's contents.
func (t *topK) clone() *topK {
	return &topK{k: t.k, ms: append([]Match(nil), t.ms...)}
}

// maxTrackedK saturates the representative-scoring bound: beyond it the
// bound is useless anyway. Only the maxTrackedK best representatives are
// guaranteed an exact score; the walks resolve every other pruned
// representative before they rely on its distance (startWalk, finishExact).
const maxTrackedK = 1024

// kthTracker tracks the k-th smallest value offered, as the abandon bound
// for representative scoring.
type kthTracker struct {
	k    int
	vals []float64
}

func newKthTracker(k int) *kthTracker {
	return &kthTracker{k: min(max(k, 1), maxTrackedK)}
}

// offer inserts v with a single insertion shift (the slice is always
// sorted, so a full re-sort per improvement would waste O(k log k) on
// every group).
func (kt *kthTracker) offer(v float64) {
	if len(kt.vals) < kt.k {
		kt.vals = append(kt.vals, v)
	} else if v < kt.vals[kt.k-1] {
		kt.vals[kt.k-1] = v
	} else {
		return
	}
	for i := len(kt.vals) - 1; i > 0 && kt.vals[i] < kt.vals[i-1]; i-- {
		kt.vals[i], kt.vals[i-1] = kt.vals[i-1], kt.vals[i]
	}
}

func (kt *kthTracker) bound() float64 {
	if len(kt.vals) < kt.k {
		return math.Inf(1)
	}
	return kt.vals[kt.k-1]
}
