// Package core implements the online half of the ONEX contribution: the
// query processor that explores the compact ONEX base with DTW instead of
// the raw data (paper §3.2-§3.3).
//
// Two search modes are provided:
//
//   - ModeApprox is the paper's behaviour: find the group whose
//     representative is DTW-closest to the query, then return the
//     DTW-closest member of that group. This is what the ONEX papers
//     measure: very fast, and empirically near-exact.
//   - ModeExact uses the certified transfer bound (DESIGN.md Lemma 3) to
//     prune groups soundly and refines every surviving group, returning
//     the provably best match over all indexed subsequences. It equals a
//     brute-force DTW scan on every input (property-tested) while still
//     profiting from the base.
//
// The package also implements the paper's other exploratory operations:
// seasonal (repeated-pattern) queries, data-driven threshold
// recommendation, and the group overview that feeds the visual front end.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
)

// Mode selects the search guarantee.
type Mode int

// Search modes.
const (
	// ModeApprox explores only the best representative's group (paper
	// behaviour; fastest).
	ModeApprox Mode = iota
	// ModeExact prunes with certified bounds and guarantees the true
	// DTW-best indexed subsequence.
	ModeExact
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeApprox:
		return "approx"
	case ModeExact:
		return "exact"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures an Engine.
type Options struct {
	// Band is the Sakoe-Chiba width used for every DTW the engine runs.
	// Negative means unconstrained. Bands are widened per comparison via
	// dist.EffectiveBand as needed.
	Band int
	// Mode selects approximate (paper) or certified-exact search.
	Mode Mode
	// LengthNorm ranks candidates by length-normalized DTW
	// (DTW / max(len(query), len(candidate))) instead of raw DTW. This is
	// how ONEX compares matches of different lengths fairly: a long match
	// accumulates more absolute cost than a short one for the same
	// per-point discrepancy. Match.Score carries the ranking value either
	// way.
	LengthNorm bool
	// Workers bounds the worker pool one search may shard its group scans
	// across (representative scoring, member refinement, range scans).
	// Values < 1 select GOMAXPROCS; 1 runs every scan as one shard, inline.
	// Small scans get one worker regardless — see parallel.go for the
	// thresholds.
	Workers int
}

// Engine binds a normalized dataset to its ONEX base and answers
// exploratory queries. Engines are safe for concurrent readers: all query
// methods are read-only.
type Engine struct {
	ds   *ts.Dataset
	base *grouping.Base
	opts Options
}

// GroupRef locates a group inside the base.
type GroupRef struct {
	Length int
	Index  int
}

// Match is one similarity-query result.
type Match struct {
	// Ref locates the matched subsequence in the dataset.
	Ref ts.SubSeq
	// Values is the matched window (a view into the dataset; do not mutate).
	Values []float64
	// Dist is the raw DTW(query, match) under the engine's band.
	Dist float64
	// Score is the ranking value: Dist when Options.LengthNorm is off,
	// Dist / max(len(query), match length) when on. Results are ordered
	// by Score.
	Score float64
	// RepDist is the raw DTW(query, representative of the match's group).
	RepDist float64
	// Group locates the group the match came from.
	Group GroupRef
	// Path is the warping path between the query and the match, for the
	// demo's "warped points" presentation (Fig 2).
	Path dist.WarpPath
}

// ErrNoMatch is returned when no candidate length intersects the base.
var ErrNoMatch = errors.New("core: no candidate subsequence in the base matches the query constraints")

// NewEngine validates that base was built from d and returns an engine.
func NewEngine(d *ts.Dataset, base *grouping.Base, opts Options) (*Engine, error) {
	if d == nil || base == nil {
		return nil, errors.New("core: NewEngine: nil dataset or base")
	}
	if got := grouping.DatasetChecksum(d); got != base.DatasetSum {
		return nil, fmt.Errorf("core: NewEngine: base was built from a different dataset (checksum %x != %x)",
			base.DatasetSum, got)
	}
	return &Engine{ds: d, base: base, opts: opts}, nil
}

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *ts.Dataset { return e.ds }

// Base returns the engine's ONEX base.
func (e *Engine) Base() *grouping.Base { return e.base }

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opts }

// GroupSummary describes one similarity group for the overview pane
// (Fig 2 top-left): the representative shape plus the cardinality that
// drives the color intensity.
type GroupSummary struct {
	Group GroupRef
	Count int
	Rep   []float64
	// MaxRadius is the largest member-to-representative ED (<= ST/2).
	MaxRadius float64
}

// Overview returns the top-k groups of one length by cardinality
// (k <= 0 means all). Length 0 selects the base length with the largest
// membership, mirroring the demo's default landing view. The context is
// checked once per length during auto-selection and once per returned
// group (each MaxRadius computation scans the group's members), so a
// cancelled walk aborts within one round with ctx.Err(). st, when non-nil,
// accumulates the groups and members visited.
func (e *Engine) Overview(ctx context.Context, length, k int, st *SearchStats) ([]GroupSummary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: Overview: %w", err)
	}
	defer release()
	if length == 0 {
		best, bestCount := 0, -1
		for _, l := range e.base.Lengths() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n := 0
			//onex:nopoll O(1) count accumulation per group; the enclosing per-length loop polls each round
			for _, g := range e.base.GroupsOfLength(l) {
				n += g.Count()
			}
			if n > bestCount {
				best, bestCount = l, n
			}
		}
		length = best
	}
	groups := e.base.GroupsOfLength(length)
	if k <= 0 || k > len(groups) {
		k = len(groups)
	}
	out := make([]GroupSummary, 0, k)
	for i := 0; i < k; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g := groups[i]
		if st != nil {
			st.Groups++
			st.Members += g.Count()
		}
		out = append(out, GroupSummary{
			Group:     GroupRef{Length: length, Index: i},
			Count:     g.Count(),
			Rep:       g.Rep,
			MaxRadius: g.MaxRadius(e.ds),
		})
	}
	return out, nil
}

// MemberInfo describes one group member for the drill-down view: the demo
// lets the analyst click an overview tile and scroll through the group's
// sequences (Fig 2's query selection pane).
type MemberInfo struct {
	Ref ts.SubSeq
	// SeriesName resolves Ref.Series for display.
	SeriesName string
	// RepED is the member's Euclidean distance to the group representative
	// (at most ST*l/2 by the construction invariant).
	RepED float64
	// Values is the member window (a view into the dataset; do not mutate).
	Values []float64
}

// GroupMembers returns the members of one group, nearest-to-representative
// first. It errors on a dangling reference. The context is checked every
// ctxCheckStride members (each member costs one representative ED), so a
// cancelled drill-down aborts within one round with ctx.Err(). st, when
// non-nil, accumulates the visit counts.
func (e *Engine) GroupMembers(ctx context.Context, ref GroupRef, st *SearchStats) ([]MemberInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	release, err := e.ds.Pin()
	if err != nil {
		return nil, fmt.Errorf("core: GroupMembers: %w", err)
	}
	defer release()
	groups := e.base.GroupsOfLength(ref.Length)
	if ref.Index < 0 || ref.Index >= len(groups) {
		return nil, fmt.Errorf("core: GroupMembers: no group %d at length %d", ref.Index, ref.Length)
	}
	g := groups[ref.Index]
	if st != nil {
		st.Groups++
		st.Members += len(g.Members)
	}
	out := make([]MemberInfo, 0, len(g.Members))
	for mi, m := range g.Members {
		if mi%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		vals := m.Values(e.ds)
		out = append(out, MemberInfo{
			Ref:        m,
			SeriesName: e.ds.At(m.Series).Name,
			RepED:      dist.ED(vals, g.Rep),
			Values:     vals,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RepED < out[j].RepED })
	return out, nil
}

// LengthSummary reports per-length base statistics for navigation panes.
type LengthSummary struct {
	Length       int
	Groups       int
	Subsequences int
}

// LengthSummaries returns the base's per-length shape, ascending by length.
// The context is checked once per indexed length, so a cancelled walk
// aborts within one round with ctx.Err(). st, when non-nil, accumulates the
// groups and members visited.
func (e *Engine) LengthSummaries(ctx context.Context, st *SearchStats) ([]LengthSummary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lengths := e.base.Lengths()
	out := make([]LengthSummary, 0, len(lengths))
	for _, l := range lengths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ls := LengthSummary{Length: l}
		//onex:nopoll O(1) count accumulation per group; the enclosing per-length loop polls each round
		for _, g := range e.base.GroupsOfLength(l) {
			ls.Groups++
			ls.Subsequences += g.Count()
		}
		out = append(out, ls)
		if st != nil {
			st.Groups += ls.Groups
			st.Members += ls.Subsequences
		}
	}
	return out, nil
}
