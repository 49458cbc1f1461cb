package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grouping"
	"repro/internal/ts"
	"repro/onex"
)

// Each run sets up at least minSetups times and until setupBudget has been
// spent, at most maxSetups times; setup_s is the median. Short set-ups are
// repeated more, since their relative noise is larger.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 5 * time.Second
)

// timedSetup runs open repeatedly, keeps the last result and returns the
// median duration. Earlier results are released by drop. A collection
// before each attempt keeps the previous attempt's garbage out of the
// next one's time.
func timedSetup[T any](open func() (T, error), drop func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
		spent time.Duration
	)
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		runtime.GC()
		start := time.Now()
		v, err := open()
		if err != nil {
			return last, 0, err
		}
		spent += time.Since(start)
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			drop(last)
		}
		last = v
	}
	return last, median(times), nil
}

// liveHeapMB forces a collection and returns the live heap in megabytes.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// allocMeter measures bytes allocated across a timed phase.
type allocMeter struct{ start uint64 }

func startAllocMeter() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.TotalAlloc}
}

func (a allocMeter) bytes() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc - a.start)
}

// normalized returns a min-max normalized clone of d, the view onex.Open
// builds its engine over.
func normalized(d *ts.Dataset) (*ts.Dataset, error) {
	n := d.Clone()
	if err := ts.NormalizeMinMax(n); err != nil {
		return nil, err
	}
	return n, nil
}

// normalizeValues maps values in original units onto normed's scale, as
// onex does for ad-hoc queries and ingested series.
func normalizeValues(normed *ts.Dataset, values []float64) []float64 {
	span := normed.Norm.Max - normed.Norm.Min
	out := make([]float64, len(values))
	for i, v := range values {
		if span != 0 {
			out[i] = (v - normed.Norm.Min) / span
		}
	}
	return out
}

// index is the benchmark's own copy of a workload's engine: the same
// normalized dataset, base and options the onex DB holds, built through
// the lower layers' public entry points so calls can be replayed there.
type index struct {
	normed    *ts.Dataset
	base      *grouping.Base
	eng       *core.Engine
	opts      core.Options
	recommend time.Duration
	build     time.Duration
}

// newIndex builds the index the way onex.Open does, timing the threshold
// recommendation and the base build, and checks that it chose the same
// threshold and group count as db.
func newIndex(d *ts.Dataset, db *onex.DB, minLen, maxLen, band, workers int) (*index, error) {
	normed, err := normalized(d)
	if err != nil {
		return nil, err
	}
	ix := &index{normed: normed, opts: core.Options{Band: band, Mode: core.ModeApprox, LengthNorm: true}}
	start := time.Now()
	recs, err := core.RecommendThresholds(normed, core.ThresholdOptions{})
	if err != nil {
		return nil, err
	}
	ix.recommend = time.Since(start)
	st := 0.0
	for _, r := range recs {
		if r.Label == "balanced" {
			st = r.ST
		}
	}
	if st != db.ST() {
		return nil, fmt.Errorf("recommended ST %v differs from the DB's %v", st, db.ST())
	}
	start = time.Now()
	ix.base, err = grouping.Build(normed, grouping.Options{ST: st, MinLength: minLen, MaxLength: maxLen, Workers: workers})
	if err != nil {
		return nil, err
	}
	ix.build = time.Since(start)
	if g := db.Stats().Groups; g != ix.base.NumGroups() {
		return nil, fmt.Errorf("index has %d groups, DB has %d", ix.base.NumGroups(), g)
	}
	ix.eng, err = core.NewEngine(normed, ix.base, ix.opts)
	return ix, err
}

// findOptions mirrors how onex resolves q against the DB's configuration,
// so a replay through core.Engine.Find runs the same search.
func (ix *index) findOptions(q onex.Query, self ts.SubSeq) core.FindOptions {
	mode := core.ModeApprox
	if q.Mode == onex.ModeExact {
		mode = core.ModeExact
	}
	c := core.QueryConstraints{MinLength: q.Lengths.Min, MaxLength: q.Lengths.Max}
	if q.Exclude.Self {
		c.ExcludeOverlap = self
	}
	return core.FindOptions{
		Options:     core.Options{Band: ix.opts.Band, Mode: mode, LengthNorm: true, Workers: q.Workers},
		K:           q.K,
		Constraints: c,
	}
}

// coreCall is one replayed core.Engine.Find: its answer, work counters and
// phase timings.
type coreCall struct {
	res         core.FindResult
	dur         time.Duration
	approxPhase time.Duration // time to the approximate answer
	waves       int
}

// replayFind runs core.Engine.Find, hooking Progress on exact-mode calls to
// time the approximate phase and count the certified waves. For an
// approx-mode call the approximate phase is the whole call.
func (ix *index) replayFind(ctx context.Context, qvec []float64, fo core.FindOptions) (coreCall, error) {
	var c coreCall
	start := time.Now()
	if fo.Mode == core.ModeExact {
		fo.Progress = func(s core.Snapshot) {
			if s.Seq == 0 {
				c.approxPhase = time.Since(start)
			}
			c.waves = s.Wave
		}
	}
	res, err := ix.eng.Find(ctx, qvec, fo)
	c.dur = time.Since(start)
	if fo.Mode != core.ModeExact {
		c.approxPhase = c.dur
	}
	c.res = res
	return c, err
}

// sameMatches compares an onex answer with a core answer over the same
// dataset: series, window and distance of every match, in order.
func sameMatches(normed *ts.Dataset, pub []onex.Match, low []core.Match) bool {
	if len(pub) != len(low) {
		return false
	}
	for i, m := range low {
		p := pub[i]
		if p.Series != normed.At(m.Ref.Series).Name || p.Start != m.Ref.Start || p.Length != m.Ref.Length || p.Dist != m.Score {
			return false
		}
	}
	return true
}

// checkDists recomputes every returned distance with internal/dist and
// reports the first disagreement.
func checkDists(normed *ts.Dataset, qvec []float64, band int, ms []onex.Match) error {
	for _, m := range ms {
		s, ok := normed.ByName(m.Series)
		if !ok || m.Start < 0 || m.Start+m.Length > s.Len() {
			return fmt.Errorf("match %s[%d:+%d] is not a window of the dataset", m.Series, m.Start, m.Length)
		}
		w := s.Values[m.Start : m.Start+m.Length]
		want := dist.DTWBanded(qvec, w, band) / float64(max(len(qvec), len(w)))
		if math.Abs(want-m.Dist) > 1e-9*math.Max(1, want) {
			return fmt.Errorf("match %s[%d:+%d] Dist %v, recomputed %v", m.Series, m.Start, m.Length, m.Dist, want)
		}
	}
	return nil
}

// coreCounts accumulates the per-query work counters of replayed finds.
type coreCounts struct {
	finds, approx, dtwsRepeat              []float64
	groups, reps, pruned, refined, members []float64
	waves                                  []float64
	exact                                  int
}

func (cc *coreCounts) add(c coreCall, exact bool) {
	st := c.res.Stats
	cc.finds = append(cc.finds, ms(c.dur))
	cc.approx = append(cc.approx, ms(c.approxPhase))
	cc.groups = append(cc.groups, float64(st.Groups))
	cc.reps = append(cc.reps, float64(st.RepDTW))
	cc.pruned = append(cc.pruned, float64(st.GroupsLBPruned))
	cc.refined = append(cc.refined, float64(st.GroupsRefined))
	cc.members = append(cc.members, float64(st.MemberDTW))
	cc.waves = append(cc.waves, float64(c.waves))
	if exact {
		cc.exact++
	}
}

// report writes the core.* metrics. Counts are means per replayed query;
// rep_dtw_useful_ratio is total groups refined over total rep DTWs.
func (cc *coreCounts) report(r *report) {
	r.set("core.find_ms_p50", "ms", median(cc.finds))
	r.set("core.approx_phase_ms_p50", "ms", median(cc.approx))
	r.set("core.waves_per_query", "count", mean(cc.waves))
	r.set("core.groups_per_query", "count", mean(cc.groups))
	r.set("core.rep_dtws_per_query", "count", mean(cc.reps))
	r.set("core.groups_pruned_per_query", "count", mean(cc.pruned))
	r.set("core.groups_refined_per_query", "count", mean(cc.refined))
	r.set("core.member_dtws_per_query", "count", mean(cc.members))
	refined, reps := sum(cc.refined), sum(cc.reps)
	r.set("core.rep_dtw_useful_ratio", "ratio", refined/math.Max(reps, 1))
	r.note("core: %d replayed finds (%d exact); useful ratio base: %.0f groups refined / %.0f rep DTWs",
		len(cc.finds), cc.exact, refined, reps)
	lo, hi := spread(cc.reps)
	r.note("core: rep DTWs per query range %.0f..%.0f across queries", lo, hi)
	if len(cc.dtwsRepeat) > 0 {
		r.set("core.dtws_repeat_spread", "count", median(cc.dtwsRepeat))
		r.note("core: DTWs of one query repeated 3x vary by %v (max-min, per sampled query); not an exact-repeat counter at Workers>1", cc.dtwsRepeat)
	}
}

// repeatSpread replays each sampled query three times and records the
// range of total DTWs, the scheduling-dependent spread of the counters.
func (cc *coreCounts) repeatSpread(ctx context.Context, ix *index, qs [][]float64, fos []core.FindOptions) error {
	for i := range qs {
		lo, hi := math.Inf(1), math.Inf(-1)
		for range 3 {
			c, err := ix.replayFind(ctx, qs[i], fos[i])
			if err != nil {
				return err
			}
			d := float64(c.res.Stats.DTWs())
			lo, hi = math.Min(lo, d), math.Max(hi, d)
		}
		cc.dtwsRepeat = append(cc.dtwsRepeat, hi-lo)
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// distProbe times the kernel on window pairs drawn from the workload's
// own dataset, lengths and band.
func distProbe(r *report, normed *ts.Dataset, minLen, maxLen, band int, rng *rand.Rand, tiny bool) {
	pairs := 200
	reps := 20
	if tiny {
		pairs, reps = 10, 2
	}
	type pair struct{ a, b []float64 }
	ps := make([]pair, pairs)
	window := func() []float64 {
		s := normed.At(rng.Intn(normed.Len()))
		l := minLen + rng.Intn(maxLen-minLen+1)
		st := rng.Intn(s.Len() - l + 1)
		return s.Values[st : st+l]
	}
	cells := 0
	for i := range ps {
		ps[i] = pair{window(), window()}
		cells += bandCells(len(ps[i].a), len(ps[i].b), band)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sink := 0.0
	start := time.Now()
	for range reps {
		for _, p := range ps {
			sink += dist.DTWBanded(p.a, p.b, band)
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	calls := float64(reps * pairs)
	r.set("dist.dtw_ns_per_cell", "ns", float64(el.Nanoseconds())/(float64(reps)*float64(cells)))
	r.set("dist.dtw_allocs_per_call", "count", float64(m1.Mallocs-m0.Mallocs)/calls)

	// LB_Keogh against the envelope of each pair's first window, projected
	// onto the second window's length (the cascade's per-candidate check).
	ups, los := make([][]float64, pairs), make([][]float64, pairs)
	points := 0
	for i, p := range ps {
		ups[i], los[i] = dist.Envelope(p.a, len(p.b), band)
		points += len(p.b)
	}
	start = time.Now()
	for range reps {
		for i, p := range ps {
			sink += dist.LBKeogh(p.b, ups[i], los[i], math.Inf(1))
		}
	}
	el = time.Since(start)
	r.set("dist.lb_keogh_ns_per_point", "ns", float64(el.Nanoseconds())/(float64(reps)*float64(points)))
	r.note("dist: %d window pairs x %d reps, lengths %d..%d, band %d, %d DP cells per pass (checksum %.6g)",
		pairs, reps, minLen, maxLen, band, cells, sink)
}

// bandCells counts the DP cells a banded DTW of lengths n and m visits.
func bandCells(n, m, band int) int {
	w := dist.EffectiveBand(n, m, band)
	cells := 0
	for i := range n {
		lo, hi := max(0, i-w), min(m-1, i+w)
		if hi >= lo {
			cells += hi - lo + 1
		}
	}
	return cells
}

// layerSetup reports the lower layers' set-up costs measured while
// building the replay index, and runs the kernel probe.
func layerSetup(r *report, ix *index, band int, rng *rand.Rand, minLen, maxLen int, tiny bool) {
	r.set("core.recommend_s", "s", ix.recommend.Seconds())
	r.set("grouping.build_s", "s", ix.build.Seconds())
	r.set("grouping.groups", "count", float64(ix.base.NumGroups()))
	r.set("grouping.windows_per_group", "ratio", float64(ix.base.NumSubsequences())/float64(ix.base.NumGroups()))
	var rebind samples
	for range 5 {
		t0 := time.Now()
		if _, err := core.NewEngine(ix.normed, ix.base, ix.opts); err != nil {
			r.errorf("core.NewEngine: %v", err)
		}
		rebind.add(time.Since(t0))
	}
	r.set("core.rebind_ms_p50", "ms", rebind.pct(50))
	distProbe(r, ix.normed, minLen, maxLen, band, rng, tiny)
}
