package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ts"
	"repro/onex"
)

// explore is the paper's interactive session: one closed-loop client
// issuing mostly approximate top-5 finds, plus exact finds, progressive
// streams and analyses, against an in-memory DB. No writes, no store, no
// HTTP, so core and dist do almost all of the timed work.

type exploreSize struct {
	series, length, heldOut, minLen, maxLen, lenStep, ops, oracle, workers int
}

func exploreSizing(tiny bool) exploreSize {
	if tiny {
		return exploreSize{series: 4, length: 48, heldOut: 2, minLen: 8, maxLen: 12, lenStep: 2, ops: 60, oracle: 1, workers: 2}
	}
	return exploreSize{series: 24, length: 256, heldOut: 8, minLen: 16, maxLen: 64, lenStep: 8, ops: 4000, oracle: 2, workers: 2}
}

// exploreCycle is the session's call mix, repeated: 13 approximate finds,
// 4 exact finds, 2 streams and 1 analysis per 20 calls.
var exploreCycle = []string{
	"approx", "approx", "exact", "approx", "approx", "stream", "approx", "approx", "exact", "approx",
	"approx", "analyze", "approx", "approx", "exact", "approx", "approx", "stream", "approx", "exact",
}

var (
	exploreKinds    = []string{"approx", "exact", "stream", "analyze"} // searches first
	exploreAnalyses = []onex.AnalysisKind{onex.AnalysisSeasonal, onex.AnalysisOverview, onex.AnalysisSimilaritySweep}
)

// exploreOp is one request of the session.
type exploreOp struct {
	kind string // approx, exact, stream or analyze
	q    onex.Query
	self ts.SubSeq // the query window, for in-dataset queries
	a    onex.Analysis
}

// exploreOps draws the session's request sequence from the seed.
func exploreOps(rng *rand.Rand, d, held *ts.Dataset, sz exploreSize) []exploreOp {
	ops := make([]exploreOp, sz.ops)
	count := map[string]int{} // calls so far per kind
	nAnalyze := 0
	for i := range ops {
		kind := exploreCycle[i%len(exploreCycle)]
		// Each kind cycles through the lengths, alternating in-dataset and
		// held-out queries per pass, so the mix is the same in every run.
		c := count[kind]
		count[kind]++
		l := lengthAt(c, sz.minLen, sz.maxLen, sz.lenStep)
		passes := c / ((sz.maxLen-sz.minLen)/sz.lenStep + 1)
		q := onex.Query{K: 5, Workers: sz.workers}
		var self ts.SubSeq
		if passes%2 == 0 {
			si := rng.Intn(d.Len())
			st := rng.Intn(d.At(si).Len() - l + 1)
			q.Window = onex.Window{Series: d.At(si).Name, Start: st, Length: l}
			q.Exclude.Self = true
			self = ts.SubSeq{Series: si, Start: st, Length: l}
		} else {
			s := held.At(rng.Intn(held.Len()))
			st := rng.Intn(s.Len() - l + 1)
			q.Values = append([]float64(nil), s.Values[st:st+l]...)
		}
		op := exploreOp{kind: kind, q: q, self: self}
		switch kind {
		case "approx":
			op.q.Mode = onex.ModeApprox
		case "exact":
			op.q.Mode = onex.ModeExact
		case "analyze":
			a := onex.Analysis{Kind: exploreAnalyses[nAnalyze%len(exploreAnalyses)], Workers: sz.workers}
			nAnalyze++
			switch a.Kind {
			case onex.AnalysisSeasonal:
				a.Series = d.At(rng.Intn(d.Len())).Name
				a.Lengths = onex.Lengths{Min: sz.minLen, Max: sz.minLen + (sz.maxLen-sz.minLen)/4}
			case onex.AnalysisOverview:
				a.Length, a.K = l, 10
			case onex.AnalysisSimilaritySweep:
				a.Window, a.Values = q.Window, q.Values
				a.Thresholds = []float64{0.01, 0.02, 0.04}
			}
			op.a = a
		}
		ops[i] = op
	}
	return ops
}

// exploreAnswer is one Find or Stream answer kept for the checks.
type exploreAnswer struct {
	op  exploreOp
	res onex.Result
}

// explorePhase is what one timed pass over the session measured.
type explorePhase struct {
	lat      map[string]*samples // per op kind; stream is time to first update
	cpu      map[string]samples  // process CPU time per call, by costClass
	answers  []exploreAnswer
	ops      int
	elapsed  time.Duration
	allocs   float64
	analyzed []onex.AnalysisResult
}

func runExplore(cfg runConfig) (*report, error) {
	sz := exploreSizing(cfg.tiny)
	r := newReport("explore")
	d := gen.RandomWalks(gen.WalkOptions{Num: sz.series, Length: sz.length, Seed: dataSeed})
	held := gen.RandomWalks(gen.WalkOptions{Num: sz.heldOut, Length: sz.length, Seed: cfg.seed + 7919})
	ops := exploreOps(rand.New(rand.NewSource(cfg.seed)), d, held, sz)
	r.note("inputs: gen.RandomWalks %dx%d seed %d; session seed %d; held-out queries from %dx%d seed %d; lengths %d..%d; auto ST; default band; Workers=%d; every 20 calls: 13 approx top-5, 4 exact, 2 stream, 1 analyze",
		sz.series, sz.length, dataSeed, cfg.seed, sz.heldOut, sz.length, cfg.seed+7919, sz.minLen, sz.maxLen, sz.workers)

	ocfg := onex.Config{MinLength: sz.minLen, MaxLength: sz.maxLen, Workers: sz.workers}
	db, setup, err := timedSetup(func() (*onex.DB, error) { return onex.Open(d, ocfg) }, func(*onex.DB) {})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	r.set("setup_s", "s", setup)
	r.set("heap_mb", "MB", liveHeapMB())
	band := db.Config().Band
	normed, err := normalized(d)
	if err != nil {
		return nil, err
	}
	r.note("db: ST %.6g band %d groups %d windows %d", db.ST(), band, db.Stats().Groups, db.Stats().Subsequences)

	ctx := context.Background()
	next := 0
	ph := exploreRun(ctx, r, db, ops, &next, cfg.measure, nil, nil)
	r.set("cpu_ms_per_op", "ms", exploreCost(r, ph))
	approx := *ph.lat["approx"]
	r.set("query_p50_ms", "ms", approx.pct(50))
	r.set("query_p90_ms", "ms", approx.pct(90))
	r.note("query tail rule: %d approx samples support p%g", len(approx), tailPercentile(len(approx)))
	r.set("exact_p50_ms", "ms", ph.lat["exact"].pct(50))
	r.set("first_update_p50_ms", "ms", ph.lat["stream"].pct(50))
	r.set("analyze_p50_ms", "ms", ph.lat["analyze"].pct(50))
	r.set("ops_per_s", "1/s", float64(ph.ops)/ph.elapsed.Seconds())
	r.set("proc.alloc_bytes_per_op", "B", ph.allocs/float64(max(ph.ops, 1)))

	exploreChecks(r, normed, band, ph, sz)
	r.set("error_rate", "ratio", float64(r.failed())/float64(max(r.attempted, 1)))

	if cfg.trace {
		if err := exploreTrace(ctx, cfg, r, d, db, normed, ops, &next, sz, ph); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// exploreRun drives the closed loop for the given time, resuming the op
// sequence at *next. With a tracer it also replays every find one layer
// down through ix and records both spans under one request ID.
func exploreRun(ctx context.Context, r *report, db *onex.DB, ops []exploreOp, next *int, dur time.Duration, tr *tracer, rp *replayer) explorePhase {
	ph := explorePhase{lat: map[string]*samples{}, cpu: map[string]samples{}}
	for _, k := range exploreKinds {
		ph.lat[k] = &samples{}
	}
	charge := func(op exploreOp, c0 time.Duration) {
		k := costClass(op.kind, op.a.Kind)
		ph.cpu[k] = append(ph.cpu[k], processCPU()-c0)
	}
	// Every kind of call, and every analysis kind, is made at least once,
	// even when dur is short.
	minOps := len(exploreCycle) * len(exploreAnalyses)
	meter := startAllocMeter()
	start := time.Now()
	for time.Since(start) < dur || ph.ops < minOps {
		op := ops[*next%len(ops)]
		*next++
		ph.ops++
		r.attempted++
		req := tr.request()
		tr.settle()
		c0 := processCPU()
		t0 := time.Now()
		switch op.kind {
		case "approx", "exact":
			res, err := db.Find(ctx, op.q)
			t1 := time.Now()
			charge(op, c0)
			if err != nil {
				r.errorf("find: %v", err)
				continue
			}
			ph.lat[op.kind].add(t1.Sub(t0))
			ph.answers = append(ph.answers, exploreAnswer{op, res})
			tr.record(req, "onex.Find", "onex", "", t0, t1)
			rp.find(ctx, r, req, "onex.Find", op.q, op.self, res)
		case "stream":
			x, err := db.Stream(ctx, op.q)
			if err != nil {
				r.errorf("stream: %v", err)
				continue
			}
			var last onex.Update
			first := true
			for u := range x.Updates() {
				if first {
					ph.lat["stream"].add(time.Since(t0))
					first = false
				}
				last = u
			}
			t1 := time.Now()
			charge(op, c0)
			if err := x.Err(); err != nil || !last.Final {
				r.errorf("stream ended without a final update: %v", err)
				continue
			}
			res := onex.Result{Matches: last.Matches, Query: last.Query, Stats: last.Stats}
			ph.answers = append(ph.answers, exploreAnswer{op, res})
			tr.record(req, "onex.Stream", "onex", "", t0, t1)
			eq := op.q
			eq.Mode = onex.ModeExact
			rp.find(ctx, r, req, "onex.Stream", eq, op.self, res)
		case "analyze":
			res, err := db.Analyze(ctx, op.a)
			t1 := time.Now()
			charge(op, c0)
			if err != nil {
				r.errorf("analyze: %v", err)
				continue
			}
			ph.lat["analyze"].add(t1.Sub(t0))
			ph.analyzed = append(ph.analyzed, res)
			tr.record(req, "onex.Analyze", "onex", "", t0, t1)
		}
	}
	ph.elapsed = time.Since(start)
	ph.allocs = meter.bytes()
	return ph
}

// exploreCost is the session's CPU cost per search call: the mean CPU time
// per call of approx, exact and stream, weighted by their shares of
// exploreCycle, so a run that stops partway through a cycle is charged the
// same mix as any other. Analyses are left out of it and only noted: a
// similarity sweep costs 1.5–3 s of CPU by window, two or three of them
// fall in a run, and which ones did moved the mix mean by about 5%.
func exploreCost(r *report, ph explorePhase) float64 {
	share := map[string]float64{}
	searches := 0
	for _, k := range exploreCycle {
		if k != "analyze" {
			share[k]++
			searches++
		}
	}
	cost := 0.0
	for _, k := range exploreKinds[:3] {
		c := ph.cpu[k]
		cost += share[k] / float64(searches) * c.mean()
		r.note("%s: %d timed calls, CPU %.4g ms per call (mean), share of the cost %.3f", k, len(c), c.mean(), share[k]/float64(searches))
	}
	for _, a := range exploreAnalyses {
		c := ph.cpu[costClass("analyze", a)]
		r.note("analyze/%s: %d timed calls, CPU %.4g ms per call (mean), not in the cost", a, len(c), c.mean())
	}
	return cost
}

// costClass names the class a call's CPU time is averaged in.
func costClass(kind string, a onex.AnalysisKind) string {
	if kind != "analyze" {
		return kind
	}
	return "analyze/" + string(a)
}

// exploreChecks verifies every answer: each returned Dist is recomputed
// with internal/dist, a seeded sample of exact answers is compared with
// the bruteforce oracle, and sweep counts must grow with the threshold.
func exploreChecks(r *report, normed *ts.Dataset, band int, ph explorePhase, sz exploreSize) {
	oracled := 0
	for _, a := range ph.answers {
		qvec := queryVector(normed, a.op)
		if err := checkDists(normed, qvec, band, a.res.Matches); err != nil {
			r.wrongf("%s query %+v: %v", a.op.kind, a.op.q.Window, err)
			continue
		}
		if a.op.kind == "approx" || oracled >= sz.oracle {
			continue
		}
		oracled++
		want, err := bruteforce.KBest(normed, qvec, a.op.q.K, bruteforce.Options{
			Band: band, MinLength: sz.minLen, MaxLength: sz.maxLen, EarlyAbandon: true,
			LengthNormalize: true, ExcludeOverlap: a.op.self,
		})
		if err != nil {
			r.wrongf("bruteforce oracle: %v", err)
			continue
		}
		if !sameScores(a.res.Matches, want) {
			r.wrongf("%s answer differs from the bruteforce oracle: got %v want %v", a.op.kind, scoresOf(a.res.Matches), oracleScores(want))
		}
	}
	r.note("checks: %d answers' distances recomputed; %d exact answers compared with the bruteforce oracle", len(ph.answers), oracled)
	for _, res := range ph.analyzed {
		for i := 1; i < len(res.Sweep); i++ {
			if res.Sweep[i].Matches < res.Sweep[i-1].Matches {
				r.wrongf("sweep counts fall with the threshold: %+v", res.Sweep)
				break
			}
		}
	}
}

// queryVector returns an op's query in the engine's normalized units.
func queryVector(normed *ts.Dataset, op exploreOp) []float64 {
	if len(op.q.Values) > 0 {
		return normalizeValues(normed, op.q.Values)
	}
	return op.self.Values(normed)
}

func sameScores(got []onex.Match, want []bruteforce.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Score) > 1e-9*math.Max(1, want[i].Score) {
			return false
		}
	}
	return true
}

func scoresOf(ms []onex.Match) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Dist
	}
	return out
}

func oracleScores(rs []bruteforce.Result) []float64 {
	out := make([]float64, len(rs))
	for i, m := range rs {
		out[i] = m.Score
	}
	return out
}

// replayer replays onex finds through the benchmark's own core engine.
type replayer struct {
	ix     *index
	tr     *tracer
	counts coreCounts
	fail   int
}

// find replays one answered onex query through core.Engine.Find under the
// same request ID and checks that both layers gave the same answer.
func (rp *replayer) find(ctx context.Context, r *report, req uint64, parent string, q onex.Query, self ts.SubSeq, got onex.Result) {
	if rp == nil {
		return
	}
	qvec := self.Values(rp.ix.normed)
	if len(q.Values) > 0 {
		qvec = normalizeValues(rp.ix.normed, q.Values)
	}
	fo := rp.ix.findOptions(q, self)
	rp.tr.settle()
	t0 := time.Now()
	c, err := rp.ix.replayFind(ctx, qvec, fo)
	rp.tr.record(req, "core.Find", "core", parent, t0, time.Now())
	if err != nil {
		rp.mismatch(r, "replay of request %d failed: %v", req, err)
		return
	}
	rp.counts.add(c, fo.Mode == core.ModeExact)
	if !sameMatches(rp.ix.normed, got.Matches, c.res.Matches) || got.Stats.Groups != c.res.Stats.Groups {
		rp.mismatch(r, "request %d: core replay answer differs from onex (groups %d vs %d)", req, c.res.Stats.Groups, got.Stats.Groups)
	}
}

func (rp *replayer) mismatch(r *report, format string, args ...any) {
	rp.fail++
	if rp.fail <= 5 {
		r.note("REPLAY MISMATCH: "+format, args...)
	}
}

// exploreTrace runs the traced phase: the same closed loop with every find
// replayed through core, plus the kernel probe and the index build timed
// through the lower layers.
func exploreTrace(ctx context.Context, cfg runConfig, r *report, d *ts.Dataset, db *onex.DB, normed *ts.Dataset, ops []exploreOp, next *int, sz exploreSize, untraced explorePhase) error {
	ix, err := newIndex(d, db, sz.minLen, sz.maxLen, db.Config().Band, sz.workers)
	if err != nil {
		return fmt.Errorf("trace index: %w", err)
	}
	layerSetup(r, ix, db.Config().Band, rand.New(rand.NewSource(cfg.seed+1)), sz.minLen, sz.maxLen, cfg.tiny)
	tr := newTracer(time.Now())
	rp := &replayer{ix: ix, tr: tr}
	ph := exploreRun(ctx, r, db, ops, next, cfg.measure, tr, rp)

	var qs [][]float64
	var fos []core.FindOptions
	for _, a := range ph.answers {
		if len(qs) == 3 || a.op.kind != "approx" {
			continue
		}
		qs = append(qs, queryVector(ix.normed, a.op))
		fos = append(fos, ix.findOptions(a.op.q, a.op.self))
	}
	if err := rp.counts.repeatSpread(ctx, ix, qs, fos); err != nil {
		return err
	}
	rp.counts.report(r)
	finishTrace(r, cfg, tr, rp.fail, untraced.lat["approx"].pct(50), ph.lat["approx"].pct(50))
	return nil
}
