package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/ts"
	"repro/onex"
)

// serve is the HTTP tier under an open loop: an in-process server with
// the result cache, reached over loopback through one connection, offered
// requests at fixed rates. Requests are drawn Zipf-skewed from a pool plus
// a share of never-seen queries, and the cache budget is below the run's
// distinct-response bytes, so hits, misses and evictions all occur. Hits
// exercise only server, servecache and JSON; misses queue behind each
// other, so a core speed-up shows in the tail.

type serveSize struct {
	perClass, length, minLen, maxLen, lenStep, pool int
	rates                                           []float64 // offered requests per second, one step each
	freshEvery                                      int       // every n-th request is a never-seen query
	cacheBytes                                      int64
}

func serveSizing(tiny bool) serveSize {
	if tiny {
		return serveSize{perClass: 2, length: 32, minLen: 4, maxLen: 8, lenStep: 1, pool: 8, rates: []float64{20, 40}, freshEvery: 10, cacheBytes: 8 << 10}
	}
	// The top rate keeps the one connection about half busy: a miss costs
	// about 100 ms of one core, and at saturation the backlog, not the
	// code, sets every latency.
	return serveSize{perClass: 8, length: 64, minLen: 4, maxLen: 32, lenStep: 4, pool: 48, rates: []float64{30, 60, 120}, freshEvery: 25, cacheBytes: 256 << 10}
}

const (
	// One connection keeps two misses from running at once: on two cores
	// their CPU time then depended on how often they met, which moved
	// cpu_ms_per_op by several percent between runs of one seed.
	serveConns     = 1
	serveLimit     = 250 * time.Millisecond // interactive latency limit for goodput
	serveDataset   = "cbf"
	serveZipfS     = 1.2
	serveThreshold = 0.02
)

// serveReq is one distinct request body.
type serveReq struct {
	key   string // endpoint + body, identifies the response
	path  string
	body  []byte
	query *onex.Query // nil for analyses
	a     *onex.Analysis
	self  ts.SubSeq
	pool  bool
}

// serveJob is one scheduled request of the open loop.
type serveJob struct {
	req  *serveReq
	due  time.Duration
	step int
}

// serveResult is what one request returned.
type serveResult struct {
	job        serveJob
	timing     openLoopRequest
	service    time.Duration // send to full body
	status     int
	body       []byte
	hit        bool // body identical to an earlier response for the same key
	firstSeen  bool
	wallMicros int64
	err        error
}

func runServe(cfg runConfig) (*report, error) {
	sz := serveSizing(cfg.tiny)
	r := newReport("serve")
	d := gen.CBF(gen.CBFOptions{PerClass: sz.perClass, Length: sz.length, Seed: dataSeed})
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := servePool(rng, d, sz)
	r.note("inputs: gen.CBF %d per class x %d seed %d; session seed %d; lengths %d..%d; pool %d requests (Zipf s=%g) + every %dth request a never-seen query, workers 1; rates %v rps for %.3gs each over %d connections; cache budget %d bytes; latency limit %v",
		sz.perClass, sz.length, dataSeed, cfg.seed, sz.minLen, sz.maxLen, sz.pool, serveZipfS, sz.freshEvery, sz.rates, cfg.measure.Seconds()/float64(len(sz.rates)), serveConns, sz.cacheBytes, serveLimit)

	ocfg := onex.Config{MinLength: sz.minLen, MaxLength: sz.maxLen}
	h, setup, err := timedSetup(func() (*serveHost, error) { return startServe(d, ocfg, sz.cacheBytes) }, func(h *serveHost) { h.stop() })
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	defer h.stop()
	r.set("setup_s", "s", setup)
	r.set("heap_mb", "MB", liveHeapMB())
	r.note("db: ST %.6g band %d groups %d windows %d", h.db.ST(), h.db.Config().Band, h.db.Stats().Groups, h.db.Stats().Subsequences)

	seen := map[string][]byte{}
	for _, q := range pool { // fill the cache before timing
		res := h.do(q, false)
		if res.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", q.key, res.err)
		}
		seen[q.key] = res.body
	}
	m0, err := h.metrics()
	if err != nil {
		return nil, err
	}
	jobs := serveSchedule(rng, d, pool, sz, cfg.measure)
	meter := startAllocMeter()
	c0 := processCPU()
	results := h.openLoop(jobs, seen)
	cpu := processCPU() - c0
	allocs := meter.bytes()
	m1, err := h.metrics()
	if err != nil {
		return nil, err
	}
	serveE2E(r, results, sz, cfg.measure)
	// The client runs in this process, so its side of each request is
	// charged too; it is the same for every response of a given size.
	r.set("cpu_ms_per_op", "ms", ms(cpu)/float64(max(len(results), 1)))
	r.set("proc.alloc_bytes_per_op", "B", allocs/float64(max(len(results), 1)))
	lookups := (m1["onex_cache_hits_total"] - m0["onex_cache_hits_total"]) + (m1["onex_cache_misses_total"] - m0["onex_cache_misses_total"])
	r.set("servecache.hit_ratio", "ratio", (m1["onex_cache_hits_total"]-m0["onex_cache_hits_total"])/max(lookups, 1))
	r.note("servecache: hit ratio base %.0f lookups from /metrics", lookups)
	r.set("servecache.evictions", "count", m1["onex_cache_evictions_total"]-m0["onex_cache_evictions_total"])
	distinct := 0
	for _, b := range seen {
		distinct += len(b)
	}
	r.note("servecache: %d distinct responses, %d bytes, budget %d bytes", len(seen), distinct, sz.cacheBytes)

	serveChecks(r, h, d, pool, results, seen)
	r.set("error_rate", "ratio", float64(r.failed())/float64(max(r.attempted, 1)))

	if cfg.trace {
		if err := serveTrace(cfg, r, h, d, rng, pool, seen, sz, results); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// servePool draws the pool of distinct requests: mostly window queries,
// plus overview, seasonal and sweep analyses.
func servePool(rng *rand.Rand, d *ts.Dataset, sz serveSize) []*serveReq {
	out := make([]*serveReq, 0, sz.pool)
	keys := map[string]bool{}
	for len(out) < sz.pool {
		var q *serveReq
		switch k := len(out) % 10; {
		case k < 8:
			q = windowQuery(rng, d, rng.Intn(d.Len()), lengthAt(len(out), sz.minLen, sz.maxLen, sz.lenStep))
		case k == 8:
			q = analysisReq(onex.Analysis{Kind: onex.AnalysisOverview, Length: sz.minLen + rng.Intn(sz.maxLen-sz.minLen+1), K: 10, Workers: 1})
		default:
			if rng.Intn(2) == 0 {
				q = analysisReq(onex.Analysis{Kind: onex.AnalysisSeasonal, Series: d.At(rng.Intn(d.Len())).Name,
					Lengths: onex.Lengths{Min: sz.minLen, Max: sz.minLen + (sz.maxLen-sz.minLen)/4}, Workers: 1})
			} else {
				w := windowQuery(rng, d, rng.Intn(d.Len()), lengthAt(len(out), sz.minLen, sz.maxLen, sz.lenStep)).query.Window
				q = analysisReq(onex.Analysis{Kind: onex.AnalysisSimilaritySweep, Window: w,
					Thresholds: []float64{serveThreshold / 2, serveThreshold, 2 * serveThreshold}, Workers: 1})
			}
		}
		if keys[q.key] {
			continue
		}
		keys[q.key] = true
		q.pool = true
		out = append(out, q)
	}
	return out
}

func windowQuery(rng *rand.Rand, d *ts.Dataset, si, l int) *serveReq {
	st := rng.Intn(d.At(si).Len() - l + 1)
	q := onex.Query{Window: onex.Window{Series: d.At(si).Name, Start: st, Length: l},
		Exclude: onex.Exclude{Self: true}, K: 5, Workers: 1}
	body, _ := json.Marshal(q)
	path := "/api/v1/datasets/" + serveDataset + "/query"
	return &serveReq{key: path + string(body), path: path, body: body, query: &q,
		self: ts.SubSeq{Series: si, Start: st, Length: l}}
}

func analysisReq(a onex.Analysis) *serveReq {
	body, _ := json.Marshal(a)
	path := "/api/v1/datasets/" + serveDataset + "/analyze"
	return &serveReq{key: path + string(body), path: path, body: body, a: &a}
}

// serveSchedule lays out the open loop: each rate step lasts an equal
// share of the timed phase; every freshEvery-th request is a query never
// sent before, cycling through the lengths and the series, and the rest
// are Zipf-drawn from the pool.
func serveSchedule(rng *rand.Rand, d *ts.Dataset, pool []*serveReq, sz serveSize, dur time.Duration) []serveJob {
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(pool)-1))
	used := map[string]bool{}
	for _, q := range pool {
		used[q.key] = true
	}
	step := dur / time.Duration(len(sz.rates))
	var jobs []serveJob
	fresh := 0
	for si, rate := range sz.rates {
		n := int(rate * step.Seconds())
		for k := range n {
			due := time.Duration(si)*step + time.Duration(float64(k)/rate*float64(time.Second))
			q := pool[zipf.Uint64()]
			if len(jobs)%sz.freshEvery == sz.freshEvery-1 {
				l := lengthAt(fresh, sz.minLen, sz.maxLen, sz.lenStep)
				si := fresh % d.Len()
				fresh++
				for q = windowQuery(rng, d, si, l); used[q.key]; q = windowQuery(rng, d, si, l) {
				}
				used[q.key] = true
			}
			jobs = append(jobs, serveJob{req: q, due: due, step: si})
		}
	}
	return jobs
}

// serveHost is a running server over one DB.
type serveHost struct {
	db     *onex.DB
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

// startServe opens the DB, starts the server on a loopback port and waits
// until it answers.
func startServe(d *ts.Dataset, ocfg onex.Config, cacheBytes int64) (*serveHost, error) {
	db, err := onex.Open(d, ocfg)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.WithCache(cacheBytes))
	srv.AddDB(serveDataset, db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &serveHost{db: db, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}},
		done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	resp, err := h.client.Get(h.base + "/healthz")
	if err != nil {
		h.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return h, nil
}

// stop shuts the server down and waits for its goroutine; it is safe to
// call more than once.
func (h *serveHost) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a second call returns ErrServerClosed
	<-h.done
	h.client.CloseIdleConnections()
}

// do sends one request, optionally bypassing the cache read.
func (h *serveHost) do(q *serveReq, noCache bool) serveResult {
	req, err := http.NewRequest(http.MethodPost, h.base+q.path, bytes.NewReader(q.body))
	if err != nil {
		return serveResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if noCache {
		req.Header.Set("Cache-Control", "no-cache")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return serveResult{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	res := serveResult{status: resp.StatusCode, body: body, err: err}
	if err == nil && resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if res.err == nil {
		var env struct {
			Stats struct {
				WallMicros int64 `json:"wall_micros"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			res.err = fmt.Errorf("decode response: %w", err)
		}
		res.wallMicros = env.Stats.WallMicros
	}
	return res
}

// metrics reads the server's /metrics counters that carry no labels.
func (h *serveHost) metrics() (map[string]float64, error) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// openLoop releases each job at its due time onto a queue drained by
// serveConns senders. seen maps each key to the last body received for
// it, which is how a response is recognised as a cache hit.
func (h *serveHost) openLoop(jobs []serveJob, seen map[string][]byte) []serveResult {
	type released struct {
		i   int
		rel time.Duration
	}
	queue := make(chan released, len(jobs)) // sized to the number of sends
	results := make([]serveResult, len(jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rj := range queue {
				job := jobs[rj.i]
				sent := time.Since(t0)
				res := h.do(job.req, false)
				done := time.Since(t0)
				res.job = job
				res.timing = openLoopRequest{due: job.due, released: rj.rel, done: done}
				res.service = done - sent
				mu.Lock()
				prev, ok := seen[job.req.key]
				res.firstSeen = !ok
				res.hit = ok && res.err == nil && bytes.Equal(prev, res.body)
				if res.err == nil {
					seen[job.req.key] = res.body
				}
				mu.Unlock()
				results[rj.i] = res
			}
		}()
	}
	for i, job := range jobs {
		if wait := job.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		queue <- released{i, time.Since(t0)}
	}
	close(queue)
	wg.Wait()
	return results
}

// serveE2E reports the end-to-end latency, goodput and the server-side
// splits of one open-loop pass.
func serveE2E(r *report, results []serveResult, sz serveSize, dur time.Duration) {
	var all, fresh, hits, missSelf, late samples
	var sizes []float64
	perStep := make([]samples, len(sz.rates))
	missService := map[string]samples{}
	good := 0
	rejected := 0
	for _, res := range results {
		r.attempted++
		if res.err != nil {
			r.errorf("%s: %v", res.job.req.key, res.err)
			if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
				rejected++
			}
			continue
		}
		lat := res.timing.latency()
		all.add(lat)
		perStep[res.job.step].add(lat)
		late.add(res.timing.late())
		sizes = append(sizes, float64(len(res.body)))
		if res.firstSeen {
			fresh.add(lat)
			missSelf.add(res.service - time.Duration(res.wallMicros)*time.Microsecond)
		}
		if res.hit {
			hits.add(res.service)
		} else {
			kind := "query"
			if a := res.job.req.a; a != nil {
				kind = string(a.Kind)
			}
			if res.firstSeen {
				kind += " (never seen)"
			}
			s := missService[kind]
			s.add(res.service)
			missService[kind] = s
		}
		if res.job.step == len(sz.rates)-1 && lat <= serveLimit {
			good++
		}
	}
	step := dur / time.Duration(len(sz.rates))
	for _, kind := range slices.Sorted(maps.Keys(missService)) {
		s := missService[kind]
		r.note("miss service %-32s %3d calls, p50 %8.3f ms, max %8.3f ms", kind, len(s), s.pct(50), s.pct(100))
	}
	for i, s := range perStep {
		r.note("rate %g rps: %d responses, p50 %.3f ms, p99 %.3f ms (tail rule supports p%g)", sz.rates[i], len(s), s.pct(50), s.pct(99), tailPercentile(len(s)))
	}
	r.set("http_p50_ms", "ms", all.pct(50))
	r.set("http_p99_ms", "ms", all.pct(99))
	r.set("http_miss_p50_ms", "ms", fresh.pct(50))
	r.set("http_miss_p90_ms", "ms", fresh.pct(90))
	r.set("http_goodput_rps", "1/s", float64(good)/step.Seconds())
	r.note("http: %d responses (%d hits, %d first-seen); tail rule supports p%g; goodput counts top-rate responses within %v", len(all), len(hits), len(fresh), tailPercentile(len(all)), serveLimit)
	r.set("server.hit_ms_p50", "ms", hits.pct(50))
	r.set("server.miss_self_ms_p50", "ms", missSelf.pct(50))
	r.set("server.response_bytes_p50", "B", median(sizes))
	r.set("server.rejected", "count", float64(rejected))
	r.set("loadgen.late_ms_p99", "ms", late.pct(99))
}

// serveChecks compares every hot-pool response with a no-cache
// recomputation (answer fields must match; a difference confined to stats
// is counted, not failed) and recomputes the distances of never-seen
// query answers. The server caches each recomputed body, so seen takes it
// too and later hits are still recognised.
func serveChecks(r *report, h *serveHost, d *ts.Dataset, pool []*serveReq, results []serveResult, seen map[string][]byte) {
	last := map[string][]byte{}
	for _, res := range results {
		if res.err == nil {
			last[res.job.req.key] = res.body
		}
	}
	normed, err := normalized(d)
	if err != nil {
		r.wrongf("normalize: %v", err)
		return
	}
	mismatches, compared := 0, 0
	for _, q := range pool {
		body, ok := last[q.key]
		if !ok {
			continue
		}
		fresh := h.do(q, true)
		r.attempted++
		if fresh.err != nil {
			r.errorf("no-cache %s: %v", q.key, fresh.err)
			continue
		}
		seen[q.key] = fresh.body
		compared++
		answerSame, statsSame, err := compareBodies(body, fresh.body)
		switch {
		case err != nil:
			r.wrongf("%s: %v", q.key, err)
		case !answerSame:
			r.wrongf("%s: cached answer differs from a no-cache recomputation", q.key)
		case !statsSame:
			mismatches++
		}
	}
	r.set("servecache.stats_mismatches", "count", float64(mismatches))
	checked := 0
	for _, res := range results {
		if res.err != nil || res.job.req.query == nil || res.job.req.pool {
			continue
		}
		var got onex.Result
		if err := json.Unmarshal(res.body, &got); err != nil {
			r.wrongf("decode %s: %v", res.job.req.key, err)
			continue
		}
		checked++
		if err := checkDists(normed, res.job.req.self.Values(normed), h.db.Config().Band, got.Matches); err != nil {
			r.wrongf("%s: %v", res.job.req.key, err)
		}
	}
	r.note("checks: %d pool responses compared with no-cache recomputations (%d differ only in stats); %d never-seen answers' distances recomputed", compared, mismatches, checked)
}

// compareBodies compares two response bodies field by field: every field
// but stats is the answer; stats are compared without wall_micros.
func compareBodies(a, b []byte) (answerSame, statsSame bool, err error) {
	var ma, mb map[string]any
	if err := json.Unmarshal(a, &ma); err != nil {
		return false, false, err
	}
	if err := json.Unmarshal(b, &mb); err != nil {
		return false, false, err
	}
	sa, _ := ma["stats"].(map[string]any)
	sb, _ := mb["stats"].(map[string]any)
	if sa == nil || sb == nil {
		return false, false, errors.New("response without stats")
	}
	delete(sa, "wall_micros")
	delete(sb, "wall_micros")
	delete(ma, "stats")
	delete(mb, "stats")
	return reflect.DeepEqual(ma, mb), reflect.DeepEqual(sa, sb), nil
}

// serveTrace runs a second open-loop pass with a span per HTTP request,
// then replays every request the cache did not answer one layer down,
// under the same request ID: through onex (Find or Analyze) and, for
// queries, through core.Engine.Find. Hits have no lower-layer call.
func serveTrace(cfg runConfig, r *report, h *serveHost, d *ts.Dataset, rng *rand.Rand, pool []*serveReq, seen map[string][]byte, sz serveSize, untraced []serveResult) error {
	band := h.db.Config().Band
	ix, err := newIndex(d, h.db, sz.minLen, sz.maxLen, band, 0)
	if err != nil {
		return fmt.Errorf("trace index: %w", err)
	}
	layerSetup(r, ix, band, rand.New(rand.NewSource(cfg.seed+1)), sz.minLen, sz.maxLen, cfg.tiny)
	t0 := time.Now()
	tr := newTracer(t0)
	jobs := serveSchedule(rng, d, pool, sz, cfg.measure)
	results := h.openLoop(jobs, seen)
	ctx := context.Background()
	rp := &replayer{ix: ix, tr: tr}
	var traced samples // hit service times: the cache state differs between the phases, a hit's cost does not
	for _, res := range results {
		req := tr.request()
		if res.err != nil {
			continue
		}
		if res.hit {
			traced.add(res.service)
		}
		sent := t0.Add(res.timing.done - res.service)
		tr.record(req, "server.HTTP", "server", "", sent, t0.Add(res.timing.done))
		if res.hit {
			continue
		}
		q := res.job.req
		tr.settle()
		start := time.Now()
		if q.query != nil {
			got, err := h.db.Find(ctx, *q.query)
			tr.record(req, "onex.Find", "onex", "server.HTTP", start, time.Now())
			var viaHTTP onex.Result
			if err == nil {
				err = json.Unmarshal(res.body, &viaHTTP)
			}
			if err != nil || !sameAnswer(viaHTTP.Matches, got.Matches) || viaHTTP.Stats.Groups != got.Stats.Groups {
				rp.mismatch(r, "request %d: onex replay differs from the HTTP answer (%v)", req, err)
				continue
			}
			rp.find(ctx, r, req, "onex.Find", *q.query, q.self, got)
			continue
		}
		got, err := h.db.Analyze(ctx, *q.a)
		tr.record(req, "onex.Analyze", "onex", "server.HTTP", start, time.Now())
		if err == nil {
			var body []byte
			body, err = json.Marshal(got)
			if err == nil {
				var same bool
				same, _, err = compareBodies(res.body, body)
				if err == nil && !same {
					err = errors.New("answer differs")
				}
			}
		}
		if err != nil {
			rp.mismatch(r, "request %d: onex analyze replay differs from the HTTP answer: %v", req, err)
		}
	}
	var untracedLat samples
	for _, res := range untraced {
		if res.hit {
			untracedLat.add(res.service)
		}
	}
	rp.counts.report(r)
	if ds, ok := selfTimes(tr.snapshot())["server.HTTP"]; ok {
		r.note("server self time p50 over all traced requests (hits have no child): %.3f ms", samples(ds).pct(50))
	}
	finishTrace(r, cfg, tr, rp.fail, untracedLat.pct(50), traced.pct(50))
	return nil
}
