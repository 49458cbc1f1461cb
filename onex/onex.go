// Package onex is the public API of the ONEX reproduction: online
// exploration of time series collections (Neamtu et al., SIGMOD 2017).
//
// ONEX answers DTW similarity queries over every subsequence of a dataset
// at interactive latency by pre-grouping subsequences with the cheap
// Euclidean distance ("the ONEX base") and exploring only the compact set
// of group representatives with DTW.
//
// Basic usage:
//
//	d, _ := onex.LoadDataset("states.csv")
//	db, _ := onex.Open(d, onex.Config{})          // normalize, pick ST, build base
//	res, _ := db.Find(ctx, onex.Query{
//		Window:  onex.Window{Series: "MA", Start: 0, Length: 12},
//		Exclude: onex.Exclude{Self: true},
//	})
//	fmt.Println(res.Matches[0].Series, res.Matches[0].Dist)
//
// Find executes every similarity scenario — best match, top-K, range, and
// constrained variants — from one composable Query, honours context
// cancellation, and reports search statistics. Analyze is its analytics
// twin: one composable Analysis covers the exploration scenarios (group
// overview, drill-down, per-length stats, seasonal and common patterns,
// threshold sweeps and recommendations) with the same cancellation and
// stats treatment:
//
//	res, _ := db.Analyze(ctx, onex.Analysis{
//		Kind:   onex.AnalysisSeasonal,
//		Series: "household-00",
//	})
//	fmt.Println(res.Patterns[0].Length, res.Patterns[0].Occurrences)
//
// Stream is Find's progressive spelling for interactive consumers: the
// same Query, answered as a refining sequence of Update snapshots — the
// approximate top-k immediately, then one update per certified
// refinement wave, terminating with the exact result:
//
//	x, _ := db.Stream(ctx, onex.Query{Values: q, K: 5})
//	defer x.Close()
//	for u := range x.Updates() {
//		render(u) // u.Certified marks matches that are already final
//	}
//
// The older per-scenario methods (BestMatch, KBestMatches, Seasonal,
// Overview, ...) remain as thin wrappers over Find and Analyze.
//
// Queries and results are in the dataset's original units; normalization
// is handled internally.
package onex

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/grouping"
	"repro/internal/store"
	"repro/internal/ts"
)

// Config tunes Open. Zero values select documented defaults; contradictory
// or out-of-domain values are rejected with a *ConfigError.
type Config struct {
	// ST is the per-point similarity threshold in normalized [0,1] units
	// (the dataset is min-max normalized before grouping, and a group of
	// length-l windows uses the absolute threshold ST*l). Zero selects the
	// data-driven "balanced" recommendation automatically (paper §3.3).
	// Negative or NaN values are a ConfigError.
	ST float64
	// MinLength/MaxLength bound the indexed subsequence lengths.
	// Defaults: MinLength 2; MaxLength = longest series. Narrow these for
	// large collections: the subsequence population grows quadratically
	// with series length. MinLength 1, negative bounds, or
	// MinLength > MaxLength are a ConfigError.
	MinLength, MaxLength int
	// Band is the Sakoe-Chiba width for all DTW comparisons (negative =
	// unconstrained; 0 means the default of max(4, MaxLength/10)).
	// Queries can override it per call via Query.Band.
	Band int
	// Exact switches the engine to certified-exact search; default is the
	// paper's approximate mode. Queries can override it per call via
	// Query.Mode.
	Exact bool
	// Workers bounds build parallelism (0 = GOMAXPROCS; negative is a
	// ConfigError).
	Workers int
	// KeepRaw skips min-max normalization; ST is then in raw units.
	KeepRaw bool
	// Store attaches a persistence engine: Open writes an initial snapshot
	// (overwriting whatever the engine held) and every successful AddSeries
	// appends a durable write-ahead-log record before Version is bumped, so
	// ingest survives crashes and OpenStore restarts warm. nil — the
	// default — keeps the dataset purely in process memory. The DB owns the
	// engine from Open on; Close releases it.
	Store store.Engine
	// CompactBytes is the WAL size that triggers automatic compaction
	// (folding the log into a fresh snapshot) after an ingest. 0 selects
	// DefaultCompactBytes; negative disables auto-compaction (explicit
	// Snapshot calls still compact). Ignored without Store.
	CompactBytes int64
	// FsyncEvery is the WAL group-commit stride: the log is fsynced once
	// per this many AddSeries appends. 0 or 1 keeps the durable default —
	// fsync before every ingest is acknowledged. Larger strides amortize
	// the fsync across N ingests for ingest-heavy leaders, at a documented
	// durability cost: a crash can lose up to N-1 of the most recently
	// acknowledged ingests (always a clean suffix — recovery keeps the
	// longest valid WAL prefix, never a torn middle). Negative is a
	// ConfigError. Ignored without Store.
	FsyncEvery int
	// MmapValues makes warm opens (OpenStore, OpenReplicaFile) serve series
	// values as zero-copy views over a read-only memory-mapped snapshot
	// instead of decoding them eagerly onto the heap, so a dataset larger
	// than RAM pages in on demand. With min-max normalization the engine's
	// normalized view is still materialized (the transform rewrites every
	// value); with KeepRaw both views alias the mapping and the dataset is
	// fully paged. Close on an mmap-backed DB releases the mapping — unlike
	// the eager default, queries after Close fail with ErrMmapClosed
	// (in-flight scans finish safely; they pin the mapping). Ignored by
	// cold opens (Open, OpenWithBase), which build from a caller-provided
	// in-memory dataset. On platforms without a usable mmap the same
	// interface transparently falls back to an eager read (StoreStatus
	// reports ValuesKind "mmap-fallback").
	MmapValues bool
}

// DefaultCompactBytes is the WAL size threshold used when Config.
// CompactBytes is zero.
const DefaultCompactBytes int64 = 4 << 20

// DB is an opened ONEX database: a normalized dataset plus its base and
// query engine. DB is safe for concurrent use: queries run concurrently
// with each other and with AddSeries (writes serialize behind a RWMutex).
type DB struct {
	mu     sync.RWMutex
	raw    *ts.Dataset // original units (clone of what the caller gave us)
	normed *ts.Dataset // what the engine sees
	base   *grouping.Base
	engine *core.Engine
	cfg    Config
	// version counts successful mutations (AddSeries) since Open. It is
	// bumped under the write lock, so any query that observes version v is
	// answered from data at least as new as mutation v — the property
	// result caches key on to never serve a stale answer.
	version uint64
	// id is the process-unique instance identifier assigned at Open,
	// immutable thereafter. See ID.
	id uint64
	// store is the attached persistence engine (nil = in-memory only); see
	// Config.Store. storeErr records the last background compaction
	// failure for StoreStatus (the triggering append itself was durable).
	store    store.Engine
	storeErr error
	// storeClosed is set by Close on a store-backed DB: durability has been
	// released, so further ingest must refuse rather than silently drop the
	// crash-safety the caller was promised.
	storeClosed bool
	// replica marks a read-only follower DB (OpenReplica): AddSeries is
	// refused — mutations arrive only through ApplyReplicated, driven by
	// the leader's WAL stream, so follower state is exactly the leader's
	// mutation sequence and nothing else.
	replica bool
	// values is the owner reference on the mmap-backed storage the dataset
	// views alias when the DB was opened with Config.MmapValues (nil for
	// eager, heap-resident DBs). Close releases it exactly once and sets
	// mmapClosed; from then on every path that could dereference series
	// values refuses with ErrMmapClosed instead of touching unmapped
	// memory. In-flight walks are safe either way: the core layer pins the
	// source for the duration of each scan, so the release by Close only
	// unmaps after the last reader finishes.
	values     ts.ValueSource
	mmapClosed bool
}

// ErrMmapClosed is returned by queries and accessors on an mmap-backed DB
// (Config.MmapValues) after Close has released the mapping. Eager DBs keep
// answering queries after Close; mmap-backed ones cannot, because the
// values were never copied out of the released mapping.
var ErrMmapClosed = errors.New("onex: mmap-backed values released by Close")

// checkValuesLocked refuses access to series values once an mmap-backed
// DB's mapping has been released. Callers hold db.mu (read or write).
func (db *DB) checkValuesLocked() error {
	if db.mmapClosed {
		return ErrMmapClosed
	}
	return nil
}

// lastDBID issues process-unique DB identifiers; see DB.id and ID.
var lastDBID atomic.Uint64

// Match is one similarity result, reported in original units. It is
// deliberately untagged for JSON: the legacy HTTP routes have always
// serialized it with Go field casing, and that wire format is kept.
type Match struct {
	// Series is the name of the matched series.
	Series string
	// Start and Length locate the matched window within Series.
	Start, Length int
	// Dist is the query-to-match distance in the query's ranking units:
	// length-normalized DTW (raw DTW divided by the longer of query and
	// match, directly comparable with the per-point Config.ST) unless the
	// query selected NormRaw.
	Dist float64
	// Values is the matched window in original units.
	Values []float64
	// Path is the DTW warping path: pairs of (query index, match index),
	// the raw material of the demo's warped-points view.
	Path [][2]int
}

// Pattern is one seasonal-query result in public form.
type Pattern struct {
	Series      string
	Length      int
	Starts      []int
	MeanGap     float64
	Occurrences int
}

// GroupInfo summarizes one similarity group for overview panes.
type GroupInfo struct {
	Length int
	Count  int
	// Rep is the representative shape in original units.
	Rep []float64
}

// Recommendation re-exports a threshold suggestion.
type Recommendation = core.Recommendation

// Open normalizes (a clone of) the dataset, chooses or accepts a
// similarity threshold, builds the ONEX base, and returns a ready DB.
// Invalid Config combinations are rejected with a *ConfigError.
func Open(d *ts.Dataset, cfg Config) (*DB, error) {
	if d == nil {
		return nil, errors.New("onex: Open: nil dataset")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("onex: Open: %w", err)
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	raw := d.Clone()
	normed := d.Clone()
	if !cfg.KeepRaw {
		if err := ts.NormalizeMinMax(normed); err != nil {
			return nil, fmt.Errorf("onex: Open: %w", err)
		}
	}
	if cfg.MaxLength <= 0 {
		cfg.MaxLength = normed.MaxLen()
	}
	if cfg.MinLength < 2 {
		cfg.MinLength = 2
	}
	if cfg.Band == 0 {
		cfg.Band = max(4, cfg.MaxLength/10)
	}
	if cfg.ST <= 0 {
		recs, err := core.RecommendThresholds(normed, core.ThresholdOptions{})
		if err != nil {
			return nil, fmt.Errorf("onex: Open: auto threshold: %w", err)
		}
		for _, r := range recs {
			if r.Label == "balanced" {
				cfg.ST = r.ST
			}
		}
		if cfg.ST <= 0 {
			cfg.ST = recs[len(recs)-1].ST
		}
	}
	base, err := grouping.Build(normed, grouping.Options{
		ST:        cfg.ST,
		MinLength: cfg.MinLength,
		MaxLength: cfg.MaxLength,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("onex: Open: %w", err)
	}
	engine, err := newEngine(normed, base, cfg)
	if err != nil {
		return nil, fmt.Errorf("onex: Open: %w", err)
	}
	db := &DB{raw: raw, normed: normed, base: base, engine: engine, cfg: cfg, version: 1, id: lastDBID.Add(1), store: cfg.Store}
	if db.store != nil {
		applyFsyncEvery(db.store, cfg.FsyncEvery)
		// Persist the freshly built state immediately so a crash right after
		// Open still warm-starts; this overwrites whatever the engine held.
		// On failure the engine is left open for the caller to close (the DB
		// never existed, so it never took ownership).
		if err := db.store.Snapshot(db.stateLocked()); err != nil {
			return nil, fmt.Errorf("onex: Open: initial snapshot: %w", err)
		}
	}
	return db, nil
}

// newEngine binds dataset+base under the DB's resolved configuration.
func newEngine(normed *ts.Dataset, base *grouping.Base, cfg Config) (*core.Engine, error) {
	mode := core.ModeApprox
	if cfg.Exact {
		mode = core.ModeExact
	}
	return core.NewEngine(normed, base, core.Options{
		Band:       cfg.Band,
		Mode:       mode,
		LengthNorm: true, // rank variable-length matches fairly
	})
}

// OpenFile loads a dataset file (.csv, .json, or UCR text) and opens it.
func OpenFile(path string, cfg Config) (*DB, error) {
	d, err := ts.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("onex: OpenFile: %w", err)
	}
	return Open(d, cfg)
}

// LoadDataset loads a dataset file without opening a DB (for inspection or
// generator output round-trips).
func LoadDataset(path string) (*ts.Dataset, error) { return ts.LoadFile(path) }

// Config returns the effective configuration with every default resolved:
// ST carries the auto-recommended threshold when none was given, MinLength
// is at least 2, MaxLength is the longest series when it was 0, and Band
// holds the resolved width max(4, MaxLength/10) when it was 0. Exact,
// Workers, and KeepRaw are returned as given.
func (db *DB) Config() Config {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg
}

// Dataset returns a deep copy of the dataset in original units. Copying
// keeps the accessor safe alongside concurrent AddSeries calls, which
// mutate the live dataset in place.
func (db *DB) Dataset() *ts.Dataset {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.mmapClosed {
		// The clone would read released mapped memory; there is no error
		// return here, so surface the closed state as an empty dataset.
		return ts.NewDataset(db.raw.Name)
	}
	return db.raw.Clone()
}

// ST returns the similarity threshold in effect (normalized units).
func (db *DB) ST() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cfg.ST
}

// Version returns the dataset's monotone mutation counter: 1 at Open,
// bumped by every successful AddSeries. Because the bump happens under the
// same write lock that guards the mutation, a query issued after Version
// returned v is answered from data at least as new as mutation v. Result
// caches key entries on (dataset, Version, canonical request) so a cached
// answer computed before an ingest is structurally unreachable after it.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// ID returns this DB instance's process-unique identifier, assigned at
// Open and immutable thereafter. Version distinguishes mutations of one
// instance; ID distinguishes instances. A result cache must key on both:
// keying on (name, Version) alone would let entries survive a dataset
// being *replaced* under the same name, since a fresh Open starts its
// version back at 1.
func (db *DB) ID() uint64 { return db.id }

// Stats describes the built base. Untagged for JSON to preserve the
// legacy HTTP wire format.
type Stats struct {
	Series          int
	Subsequences    int
	Groups          int
	CompactionRatio float64
	BuildMillis     int64
}

// Stats returns base-construction statistics.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return Stats{
		Series:          db.normed.Len(),
		Subsequences:    db.base.NumSubsequences(),
		Groups:          db.base.NumGroups(),
		CompactionRatio: db.base.CompactionRatio(),
		BuildMillis:     db.base.BuildStats.Duration.Milliseconds(),
	}
}

// normalizeQuery maps a query in original units into the engine's space.
// Callers hold db.mu.
func (db *DB) normalizeQuery(q []float64) []float64 {
	if db.cfg.KeepRaw {
		out := make([]float64, len(q))
		copy(out, q)
		return out
	}
	span := db.normed.Norm.Max - db.normed.Norm.Min
	out := make([]float64, len(q))
	for i, v := range q {
		if span == 0 {
			out[i] = 0
		} else {
			out[i] = (v - db.normed.Norm.Min) / span
		}
	}
	return out
}

// publicMatch converts an engine match to original units. Callers hold
// db.mu.
func (db *DB) publicMatch(m core.Match) Match {
	values, _ := ts.DenormalizeValues(db.normed, m.Ref.Series, m.Values)
	path := make([][2]int, len(m.Path))
	for i, st := range m.Path {
		path[i] = [2]int{st.I, st.J}
	}
	return Match{
		Series: db.normed.At(m.Ref.Series).Name,
		Start:  m.Ref.Start,
		Length: m.Ref.Length,
		Dist:   m.Score, // length-normalized; comparable with Config.ST
		Values: values,
		Path:   path,
	}
}

// RecommendForDataset computes threshold recommendations for a dataset
// before opening it, in the normalized units Open will use, so the chosen
// ST can be passed straight into Config.ST. The dataset is not modified.
func RecommendForDataset(d *ts.Dataset) ([]Recommendation, error) {
	if d == nil {
		return nil, errors.New("onex: RecommendForDataset: nil dataset")
	}
	c := d.Clone()
	if err := ts.NormalizeMinMax(c); err != nil {
		return nil, fmt.Errorf("onex: RecommendForDataset: %w", err)
	}
	return core.RecommendThresholds(c, core.ThresholdOptions{})
}

// SeriesNames lists the dataset's series in order.
func (db *DB) SeriesNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, db.raw.Len())
	for i, s := range db.raw.Series {
		out[i] = s.Name
	}
	return out
}

// SeriesValues returns a copy of the named series in original units.
func (db *DB) SeriesValues(name string) ([]float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := db.checkValuesLocked(); err != nil {
		return nil, err
	}
	s, ok := db.raw.ByName(name)
	if !ok {
		return nil, fmt.Errorf("onex: unknown series %q", name)
	}
	out := make([]float64, s.Len())
	copy(out, s.Values)
	return out, nil
}
