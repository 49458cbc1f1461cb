package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/ts"
	"repro/onex"
)

// ingest is writes beside reads on a durable DB: one paced writer
// appends fresh walks with AddSeries while one closed-loop reader runs
// approximate finds. The grouping insert, WAL append and fsync,
// compaction, engine rebind and, at the end, WAL replay dominate; read
// latency shows how long the write lock is held.

type ingestSize struct {
	series, length, writeLength, minLen, maxLen, lenStep, writes, reads int
	compactBytes                                                        int64
	think, readThink                                                    time.Duration
}

func ingestSizing(tiny bool) ingestSize {
	if tiny {
		return ingestSize{series: 3, length: 40, writeLength: 16, minLen: 8, maxLen: 12, lenStep: 2, writes: 400, reads: 200, compactBytes: 1 << 10, think: 10 * time.Millisecond, readThink: 10 * time.Millisecond}
	}
	// The writer makes one write per think period, so the DB grows by the
	// same number of series in every run, whatever the insert costs. Reads
	// search one length each and pause between calls, so the reader is
	// busy about 1% of the time: few writes wait for a read, the write p50
	// and p90 measure the write path, and reads that meet a write show how
	// long the write lock is held. Writes are released at a uniform offset
	// in the first half of their period and read pauses are drawn from
	// [readThink/2, 3*readThink/2]: equal fixed pauses lock the two loops
	// into step, every write then waiting out a whole read.
	return ingestSize{series: 16, length: 256, writeLength: 48, minLen: 16, maxLen: 48, lenStep: 4, writes: 2000, reads: 2000,
		compactBytes: 16 << 10, think: 150 * time.Millisecond, readThink: 200 * time.Millisecond}
}

const ingestFsyncEvery = 1 // fsync before every acknowledgement

// ingestInputs is the seeded input set.
type ingestInputs struct {
	seed   int64
	d      *ts.Dataset
	writes *ts.Dataset // series the writer appends, in order
	reads  []ingestRead
	probe  onex.Query
}

type ingestRead struct {
	q    onex.Query
	self ts.SubSeq
}

func makeIngestInputs(seed int64, sz ingestSize) ingestInputs {
	in := ingestInputs{
		seed:   seed,
		d:      gen.RandomWalks(gen.WalkOptions{Num: sz.series, Length: sz.length, Seed: dataSeed}),
		writes: gen.RandomWalks(gen.WalkOptions{Num: sz.writes, Length: sz.writeLength, Seed: seed + 104729}),
	}
	// Each written walk continues from the last value of a base series, so
	// new readings stay in the range the DB was normalized over.
	for i := range in.writes.Len() {
		w := in.writes.At(i).Values
		shift := in.d.At(i % in.d.Len()).Values[sz.length-1] - w[0]
		for j := range w {
			w[j] += shift
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for j := range sz.reads {
		l := lengthAt(j, sz.minLen, sz.maxLen, sz.lenStep)
		si := rng.Intn(in.d.Len())
		st := rng.Intn(sz.length - l + 1)
		in.reads = append(in.reads, ingestRead{
			q: onex.Query{Window: onex.Window{Series: in.d.At(si).Name, Start: st, Length: l},
				Exclude: onex.Exclude{Self: true}, Lengths: onex.Lengths{Min: l, Max: l},
				K: 5, Mode: onex.ModeApprox, Workers: 1},
			self: ts.SubSeq{Series: si, Start: st, Length: l},
		})
	}
	in.probe = in.reads[0].q
	return in
}

// jitter returns a pause drawn uniformly from [mean/2, 3*mean/2].
func jitter(rng *rand.Rand, mean time.Duration) time.Duration {
	return mean/2 + time.Duration(rng.Int63n(int64(mean)+1))
}

// ingestPhase is what one timed writer/reader pass measured.
type ingestPhase struct {
	writeLat, readLat, overlapLat samples
	writeCPU                      samples // the writer thread's CPU time per acked write
	acked                         []int   // indices into inputs.writes
	writeIvs                      []interval
	reads                         []ingestAnswer
	overlapped                    int
	walBytes, snapBytes, user     float64
	compactions                   int
	elapsed                       time.Duration
	allocs                        float64
}

type ingestAnswer struct {
	read ingestRead
	res  onex.Result
}

func runIngest(cfg runConfig) (*report, error) {
	sz := ingestSizing(cfg.tiny)
	r := newReport("ingest")
	in := makeIngestInputs(cfg.seed, sz)
	r.note("inputs: gen.RandomWalks %dx%d seed %d; session seed %d; writer appends %d-point walks from seed %d, one per %v; reader windows lengths %d..%d, each searching its own length, approx top-5 Workers=1 with %v mean think time; FsyncEvery=%d (fsync before every ack); CompactBytes=%d",
		sz.series, sz.length, dataSeed, cfg.seed, sz.writeLength, cfg.seed+104729, sz.think, sz.minLen, sz.maxLen, sz.readThink, ingestFsyncEvery, sz.compactBytes)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	ocfg := onex.Config{MinLength: sz.minLen, MaxLength: sz.maxLen, Workers: 2,
		FsyncEvery: ingestFsyncEvery, CompactBytes: sz.compactBytes}
	n := 0
	open := func() (*onex.DB, string, error) {
		n++
		dir := filepath.Join(tmp, fmt.Sprintf("db%d", n))
		fs, err := store.Open(dir)
		if err != nil {
			return nil, "", err
		}
		c := ocfg
		c.Store = fs
		db, err := onex.Open(in.d, c)
		if err != nil {
			fs.Close()
		}
		return db, dir, err
	}
	type opened struct {
		db  *onex.DB
		dir string
	}
	o, setup, err := timedSetup(func() (opened, error) {
		db, dir, err := open()
		return opened{db, dir}, err
	}, func(o opened) { o.db.Close() })
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	db, dir := o.db, o.dir
	r.set("setup_s", "s", setup)
	r.set("heap_mb", "MB", liveHeapMB())
	st0, _ := db.StoreStatus()
	r.set("store.snapshot_bytes_per_value_byte", "ratio", float64(st0.SnapshotBytes)/float64(8*in.d.TotalValues()))
	r.note("db: ST %.6g band %d groups %d windows %d; initial snapshot %d bytes", db.ST(), db.Config().Band, db.Stats().Groups, db.Stats().Subsequences, st0.SnapshotBytes)

	ctx := context.Background()
	ph := ingestRun(ctx, r, db, in, sz, cfg.measure, nil)
	ingestE2E(r, ph)
	if err := ingestRestart(ctx, r, db, dir, in, ph, ocfg); err != nil {
		return nil, err
	}
	normed, err := normalized(in.d)
	if err != nil {
		return nil, err
	}
	ingestChecks(r, normed, in, ph, db.Config().Band)
	r.set("error_rate", "ratio", float64(r.failed())/float64(max(r.attempted, 1)))

	if cfg.trace {
		dbB, dirB, err := open()
		if err != nil {
			return nil, fmt.Errorf("open traced DB: %w", err)
		}
		defer dbB.Close()
		if err := ingestTrace(ctx, cfg, r, dbB, dirB+"-replay", in, ph, sz); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ingestRun runs the writer and the reader side by side for dur. With a
// replay set (traced phase) every call is replayed one layer down under
// the same request ID; the replay lock keeps each read's replay on the
// state its onex call saw.
func ingestRun(ctx context.Context, r *report, db *onex.DB, in ingestInputs, sz ingestSize, dur time.Duration, rp *ingestReplay) ingestPhase {
	var (
		ph       ingestPhase
		wg       sync.WaitGroup
		mu       sync.Mutex // guards r and ph.reads/readLat while both loops run
		readIvs  []interval
		replayMu sync.RWMutex
	)
	t0 := time.Now()
	clock := func() time.Duration { return time.Since(t0) }
	meter := startAllocMeter()
	wg.Add(2)
	wrng, rrng := rand.New(rand.NewSource(in.seed)), rand.New(rand.NewSource(in.seed+1))
	// The writer makes a fixed number of writes, one per think period, each
	// released at its period's start plus a seeded jitter, so every run
	// grows the DB by the same series whatever the inserts cost. It holds
	// its OS thread so that the thread's CPU time is the writes' own.
	nWrites := min(max(int(dur/sz.think), 1), in.writes.Len())
	writerDone := make(chan struct{})
	go func() { // writer
		defer wg.Done()
		defer close(writerDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := range nWrites {
			due := time.Duration(i)*sz.think + jitter(wrng, sz.think/2) - sz.think/4
			if wait := due - clock(); wait > 0 {
				time.Sleep(wait)
			}
			s := in.writes.At(i)
			name := fmt.Sprintf("ing-%05d", i)
			before, _ := db.StoreStatus()
			if rp != nil {
				replayMu.Lock()
			}
			req := rp.request()
			c0 := threadCPU()
			a := time.Now()
			err := db.AddSeries(name, s.Values)
			b := time.Now()
			cpu := threadCPU() - c0
			if rp != nil {
				if err == nil {
					rp.addSeries(r, &mu, db, req, name, s.Values, a, b)
				}
				replayMu.Unlock()
			}
			mu.Lock()
			r.attempted++
			if err != nil {
				r.errorf("AddSeries %s: %v", name, err)
				mu.Unlock()
				continue
			}
			mu.Unlock()
			ph.writeLat.add(b.Sub(a))
			ph.writeCPU.add(cpu)
			ph.writeIvs = append(ph.writeIvs, interval{a.Sub(t0), b.Sub(t0)})
			ph.acked = append(ph.acked, i)
			after, _ := db.StoreStatus()
			ph.walBytes += float64(len(store.EncodeWALStream([]store.Record{{Seq: after.LastSeq, Name: name, Values: s.Values}})) - len(store.EncodeWALStream(nil)))
			ph.user += float64(8 * len(s.Values))
			if after.Compactions > before.Compactions {
				ph.compactions += int(after.Compactions - before.Compactions)
				ph.snapBytes += float64(after.SnapshotBytes)
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		for j := 0; ; j++ {
			if j > 0 {
				select {
				case <-writerDone:
				case <-time.After(jitter(rrng, sz.readThink)):
				}
			}
			select {
			case <-writerDone:
				return
			default:
			}
			rd := in.reads[j%len(in.reads)]
			if rp != nil {
				replayMu.RLock()
			}
			req := rp.request()
			a := time.Now()
			res, err := db.Find(ctx, rd.q)
			b := time.Now()
			if rp != nil {
				if err == nil {
					rp.find(ctx, r, &mu, req, rd, res, a, b)
				}
				replayMu.RUnlock()
			}
			mu.Lock()
			r.attempted++
			if err != nil {
				r.errorf("find: %v", err)
			} else {
				ph.readLat.add(b.Sub(a))
				ph.reads = append(ph.reads, ingestAnswer{rd, res})
				readIvs = append(readIvs, interval{a.Sub(t0), b.Sub(t0)})
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	ph.elapsed = clock()
	ph.allocs = meter.bytes()
	for i, iv := range readIvs {
		if overlapsAny(iv, ph.writeIvs) {
			ph.overlapped++
			ph.overlapLat.add(ph.readLat[i])
		}
	}
	return ph
}

// ingestE2E reports the end-to-end and store-level numbers of the
// untraced phase.
func ingestE2E(r *report, ph ingestPhase) {
	r.note("writes: %d acked; reads: %d; elapsed %.2fs", len(ph.acked), len(ph.readLat), ph.elapsed.Seconds())
	r.set("cpu_ms_per_op", "ms", ph.writeCPU.mean())
	r.set("ingest_p50_ms", "ms", ph.writeLat.pct(50))
	r.set("ingest_p90_ms", "ms", ph.writeLat.pct(90))
	r.set("query_p50_ms", "ms", ph.readLat.pct(50))
	r.set("query_p90_ms", "ms", ph.readLat.pct(90))
	r.note("tail rule: %d writes support p%g, %d reads support p%g", len(ph.writeLat), tailPercentile(len(ph.writeLat)), len(ph.readLat), tailPercentile(len(ph.readLat)))
	if n := len(ph.writeLat); n >= 2 {
		r.note("ingest latency first vs last write: %.1f ms -> %.1f ms (the DB grows by every acked series)", ms(ph.writeLat[0]), ms(ph.writeLat[n-1]))
	}
	r.set("onex.read_overlap_share", "ratio", float64(ph.overlapped)/float64(max(len(ph.readLat), 1)))
	r.set("onex.read_overlap_p50_ms", "ms", ph.overlapLat.pct(50))
	r.set("store.compactions", "count", float64(ph.compactions))
	r.set("store.bytes_written_per_user_byte", "ratio", (ph.walBytes+ph.snapBytes)/max(ph.user, 1))
	r.note("store: %.0f WAL bytes + %.0f snapshot bytes written for %.0f user value bytes", ph.walBytes, ph.snapBytes, ph.user)
	r.set("proc.alloc_bytes_per_op", "B", ph.allocs/float64(max(len(ph.writeLat)+len(ph.readLat), 1)))
}

// ingestRestart closes the DB, times the store load and the warm restart,
// and checks that every acknowledged series survived with identical
// values and that a probe query answers as before.
func ingestRestart(ctx context.Context, r *report, db *onex.DB, dir string, in ingestInputs, ph ingestPhase, ocfg onex.Config) error {
	before, err := db.Find(ctx, in.probe)
	if err != nil {
		return fmt.Errorf("probe before restart: %w", err)
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fs, err := store.Open(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	lr, err := fs.Load()
	r.set("store.load_s", "s", time.Since(t0).Seconds())
	fs.Close()
	if err != nil {
		return fmt.Errorf("store load: %w", err)
	}
	replayed := 0
	for _, rec := range lr.Records {
		if rec.Seq > lr.State.Version {
			replayed++
		}
	}
	r.set("store.wal_records_replayed", "count", float64(replayed))

	t0 = time.Now()
	db2, err := onex.OpenStore(dir, onex.Config{Workers: ocfg.Workers, FsyncEvery: ocfg.FsyncEvery, CompactBytes: ocfg.CompactBytes})
	if err != nil {
		return fmt.Errorf("OpenStore: %w", err)
	}
	defer db2.Close()
	after, err := db2.Find(ctx, in.probe)
	r.set("restart_s", "s", time.Since(t0).Seconds())
	if err != nil {
		r.errorf("probe after restart: %v", err)
		return nil
	}
	r.attempted++
	for _, i := range ph.acked {
		r.attempted++
		s := in.writes.At(i)
		got, err := db2.SeriesValues(fmt.Sprintf("ing-%05d", i))
		if err != nil || !slices.Equal(got, s.Values) {
			r.wrongf("acknowledged series %d lost or changed after restart (%v)", i, err)
		}
	}
	if !sameAnswer(before.Matches, after.Matches) {
		r.wrongf("probe query answers differ across restart")
	}
	return nil
}

// sameAnswer compares two onex match lists by window and distance.
func sameAnswer(a, b []onex.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Series != b[i].Series || a[i].Start != b[i].Start || a[i].Length != b[i].Length || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// ingestChecks recomputes the distance of every match the reader got,
// over the dataset extended with the acknowledged series.
func ingestChecks(r *report, normed *ts.Dataset, in ingestInputs, ph ingestPhase, band int) {
	for _, i := range ph.acked {
		s := in.writes.At(i)
		normed.MustAdd(ts.NewSeries(fmt.Sprintf("ing-%05d", i), normalizeValues(normed, s.Values)))
	}
	for _, a := range ph.reads {
		if err := checkDists(normed, a.read.self.Values(normed), band, a.res.Matches); err != nil {
			r.wrongf("read %+v: %v", a.read.q.Window, err)
		}
	}
	r.note("checks: %d acked series compared after restart; %d reads' distances recomputed", len(ph.acked), len(ph.reads))
}

// ingestReplay replays the traced phase's calls one layer down: writes
// through grouping.Base.AddSeries, core.NewEngine and a second FileStore's
// Append (and Snapshot when its WAL outgrows the same threshold), reads
// through core.Engine.Find.
type ingestReplay struct {
	ix           *index
	raw          *ts.Dataset // original-unit copy for the replay store's snapshots
	fs           *store.FileStore
	compactBytes int64
	tr           *tracer
	counts       coreCounts
	fail         int
}

func (rp *ingestReplay) request() uint64 {
	if rp == nil {
		return 0
	}
	return rp.tr.request()
}

func (rp *ingestReplay) mismatch(r *report, mu *sync.Mutex, format string, args ...any) {
	mu.Lock()
	defer mu.Unlock()
	rp.fail++
	if rp.fail <= 5 {
		r.note("REPLAY MISMATCH: "+format, args...)
	}
}

func (rp *ingestReplay) addSeries(r *report, mu *sync.Mutex, db *onex.DB, req uint64, name string, values []float64, a, b time.Time) {
	tr := rp.tr
	tr.record(req, "onex.AddSeries", "onex", "", a, b)
	ix := rp.ix
	ix.normed.MustAdd(ts.NewSeries(name, normalizeValues(ix.normed, values)))
	rp.raw.MustAdd(ts.NewSeries(name, values))
	t := time.Now()
	err := ix.base.AddSeries(ix.normed, ix.normed.Len()-1)
	tr.record(req, "grouping.AddSeries", "grouping", "onex.AddSeries", t, time.Now())
	if err != nil {
		rp.mismatch(r, mu, "grouping.AddSeries %s: %v", name, err)
		return
	}
	t = time.Now()
	eng, err := core.NewEngine(ix.normed, ix.base, ix.opts)
	tr.record(req, "core.NewEngine", "core", "onex.AddSeries", t, time.Now())
	if err != nil {
		rp.mismatch(r, mu, "core.NewEngine: %v", err)
		return
	}
	ix.eng = eng
	st, _ := db.StoreStatus()
	t = time.Now()
	err = rp.fs.Append(store.Record{Seq: st.LastSeq, Name: name, Values: values})
	tr.record(req, "store.Append", "store", "onex.AddSeries", t, time.Now())
	if err != nil {
		rp.mismatch(r, mu, "store.Append: %v", err)
		return
	}
	if rs := rp.fs.Status(); rs.WALBytes >= rp.compactBytes {
		t = time.Now()
		err = rp.fs.Snapshot(&store.State{Dataset: rp.raw, Norm: ix.normed.Norm, Base: ix.base, Version: st.LastSeq, Band: ix.opts.Band})
		tr.record(req, "store.Snapshot", "store", "onex.AddSeries", t, time.Now())
		if err != nil {
			rp.mismatch(r, mu, "store.Snapshot: %v", err)
		}
	}
	if g := db.Stats().Groups; g != ix.base.NumGroups() || rp.fs.LastSeq() != st.LastSeq {
		rp.mismatch(r, mu, "request %d: replayed insert has %d groups (onex %d), store seq %d (onex %d)", req, ix.base.NumGroups(), g, rp.fs.LastSeq(), st.LastSeq)
	}
}

func (rp *ingestReplay) find(ctx context.Context, r *report, mu *sync.Mutex, req uint64, rd ingestRead, got onex.Result, a, b time.Time) {
	rp.tr.record(req, "onex.Find", "onex", "", a, b)
	fo := rp.ix.findOptions(rd.q, rd.self)
	t := time.Now()
	c, err := rp.ix.replayFind(ctx, rd.self.Values(rp.ix.normed), fo)
	rp.tr.record(req, "core.Find", "core", "onex.Find", t, time.Now())
	if err != nil {
		rp.mismatch(r, mu, "core replay of request %d: %v", req, err)
		return
	}
	mu.Lock()
	rp.counts.add(c, false)
	mu.Unlock()
	if !sameMatches(rp.ix.normed, got.Matches, c.res.Matches) || got.Stats.Groups != c.res.Stats.Groups {
		rp.mismatch(r, mu, "request %d: core replay answer differs from onex", req)
	}
}

// ingestTrace runs the traced phase on a second DB opened from the same
// inputs, so both phases start from the same state.
func ingestTrace(ctx context.Context, cfg runConfig, r *report, db *onex.DB, replayDir string, in ingestInputs, untraced ingestPhase, sz ingestSize) error {
	ix, err := newIndex(in.d, db, sz.minLen, sz.maxLen, db.Config().Band, 2)
	if err != nil {
		return fmt.Errorf("trace index: %w", err)
	}
	layerSetup(r, ix, db.Config().Band, rand.New(rand.NewSource(cfg.seed+1)), sz.minLen, sz.maxLen, cfg.tiny)
	fs, err := store.Open(replayDir)
	if err != nil {
		return err
	}
	defer fs.Close()
	fs.SetFsyncEvery(ingestFsyncEvery)
	raw := in.d.Clone()
	if err := fs.Snapshot(&store.State{Dataset: raw, Norm: ix.normed.Norm, Base: ix.base, Version: db.Version(), Band: ix.opts.Band}); err != nil {
		return err
	}
	tr := newTracer(time.Now())
	rp := &ingestReplay{ix: ix, raw: raw, fs: fs, compactBytes: sz.compactBytes, tr: tr}
	ph := ingestRun(ctx, r, db, in, sz, cfg.measure, rp)

	spans := tr.snapshot()
	byName := map[string]samples{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
	}
	self := selfTimes(spans)
	r.set("grouping.add_series_ms_p50", "ms", byName["grouping.AddSeries"].pct(50))
	r.set("grouping.add_series_ms_p90", "ms", byName["grouping.AddSeries"].pct(90))
	r.set("core.rebind_ms_p50", "ms", byName["core.NewEngine"].pct(50))
	r.set("store.append_ms_p50", "ms", byName["store.Append"].pct(50))
	r.set("store.compact_ms_p50", "ms", byName["store.Snapshot"].pct(50))
	r.set("onex.add_series_self_ms_p50", "ms", samples(self["onex.AddSeries"]).pct(50))
	rp.counts.report(r)
	finishTrace(r, cfg, tr, rp.fail, untraced.readLat.pct(50), ph.readLat.pct(50))
	r.note("traced phase: %d writes, %d reads (replays serialize reads behind writes)", len(ph.acked), len(ph.readLat))
	return nil
}
