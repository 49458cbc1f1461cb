package onex

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/grouping"
	"repro/internal/store"
	"repro/internal/ts"
)

// AddSeries appends a new series (original units) to the open database and
// incrementally indexes its subsequences into the base — the demo's "load
// new data" flow without a rebuild. Values falling outside the
// normalization range seen at Open time are mapped linearly beyond [0,1],
// which keeps all distances consistent. AddSeries is safe to call
// concurrently with queries: it takes the DB's write lock, so in-flight
// queries finish first and new ones wait for the insert.
//
// With a store attached, the series is logged to the write-ahead log and
// fsynced before AddSeries returns (and before Version advances): a nil
// error means the ingest survives a crash. A failed append rolls the
// in-memory insert back, so memory and disk never disagree about Version.
func (db *DB) AddSeries(name string, values []float64) error {
	if name == "" {
		return errors.New("onex: AddSeries: name required")
	}
	if len(values) == 0 {
		return errors.New("onex: AddSeries: no values")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.replica {
		return ErrReadOnlyReplica
	}
	if db.storeClosed {
		return errors.New("onex: AddSeries: store closed (durability released); reopen with OpenStore")
	}
	if err := db.applySeriesLocked(name, values); err != nil {
		return fmt.Errorf("onex: AddSeries: %w", err)
	}
	if db.store != nil {
		rec := store.Record{Seq: db.version + 1, Name: name, Values: values}
		if err := db.store.Append(rec); err != nil {
			db.unapplySeriesLocked(name)
			return fmt.Errorf("onex: AddSeries: wal: %w", err)
		}
	}
	// Still under the write lock: any reader that subsequently observes the
	// new version is guaranteed to see the ingested series too.
	db.version++
	db.maybeCompactLocked()
	return nil
}

// applySeriesLocked performs the in-memory half of an ingest: append to both
// dataset views, index into the base, rebind the engine. On error the DB is
// unchanged. Callers hold the write lock (or exclusive access, during
// recovery replay) and are responsible for bumping version afterwards.
func (db *DB) applySeriesLocked(name string, values []float64) error {
	if _, dup := db.raw.ByName(name); dup {
		return fmt.Errorf("series %q already exists", name)
	}
	if err := db.raw.Add(ts.NewSeries(name, values)); err != nil {
		return err
	}
	var normVals []float64
	if db.cfg.KeepRaw {
		normVals = make([]float64, len(values))
		copy(normVals, values)
	} else {
		normVals = db.normalizeQuery(values)
	}
	ns := ts.NewSeries(name, normVals)
	if err := db.normed.Add(ns); err != nil {
		// Roll back the raw append (name index included) to stay consistent.
		db.raw.Remove(name)
		return err
	}
	if err := db.base.AddSeries(db.normed, db.normed.Len()-1); err != nil {
		// grouping.AddSeries validates before touching the base, so removing
		// the freshly appended series from both datasets restores the
		// pre-call state exactly (no dangling name-index entries).
		db.raw.Remove(name)
		db.normed.Remove(name)
		return err
	}
	// The engine binds dataset+base by checksum; rebind after the change
	// (still under the write lock, so no query observes the stale binding).
	engine, err := newEngine(db.normed, db.base, db.cfg)
	if err != nil {
		db.unapplySeriesLocked(name)
		return fmt.Errorf("rebind engine: %w", err)
	}
	db.engine = engine
	return nil
}

// unapplySeriesLocked is applySeriesLocked's inverse, used when the durable
// append fails after the in-memory insert succeeded. It is only sound for
// the most recently added series (grouping.RemoveSeries's contract). Callers
// hold the write lock.
func (db *DB) unapplySeriesLocked(name string) {
	si := db.normed.Len() - 1
	db.raw.Remove(name)
	db.normed.Remove(name)
	db.base.RemoveSeries(db.normed, si)
	// Rebind over the restored state; the pre-insert engine referenced the
	// same (now restored) dataset and base, so failure here is impossible in
	// practice — keep the old binding if it somehow happens.
	if engine, err := newEngine(db.normed, db.base, db.cfg); err == nil {
		db.engine = engine
	}
}

// CommonShape is a shape shared across several series, in original units.
type CommonShape struct {
	Length int
	// Series names the distinct series the shape recurs in.
	Series []string
	// Rep is the shared shape in original units.
	Rep []float64
	// TotalMembers is the full cardinality of the underlying group.
	TotalMembers int
}

// SweepPoint re-exports one threshold-sweep step.
type SweepPoint = core.SweepPoint

// Member is one group member in the drill-down view, in original units.
type Member struct {
	Series string
	Start  int
	Length int
	// RepED is the Euclidean distance to the group representative in
	// normalized units (bounded by ST*Length/2).
	RepED  float64
	Values []float64
}

// LengthSummary re-exports the per-length base statistics row.
type LengthSummary = core.LengthSummary

// SaveBase persists the built ONEX base to a file (versioned binary format
// with CRC). Reopening with OpenWithBase skips the preprocessing cost.
func (db *DB) SaveBase(path string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.base.SaveFile(path)
}

// OpenWithBase opens a dataset using a previously saved base instead of
// rebuilding. The base must have been built (by this library) from exactly
// this dataset with the same normalization setting; this is verified by
// checksum. cfg.ST, MinLength and MaxLength are taken from the base.
func OpenWithBase(d *ts.Dataset, basePath string, cfg Config) (*DB, error) {
	if d == nil {
		return nil, errors.New("onex: OpenWithBase: nil dataset")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("onex: OpenWithBase: %w", err)
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	raw := d.Clone()
	normed := d.Clone()
	if !cfg.KeepRaw {
		if err := ts.NormalizeMinMax(normed); err != nil {
			return nil, fmt.Errorf("onex: OpenWithBase: %w", err)
		}
	}
	base, err := grouping.LoadFile(basePath, normed)
	if err != nil {
		return nil, fmt.Errorf("onex: OpenWithBase: %w", err)
	}
	cfg.ST = base.ST
	cfg.MinLength = base.MinLength
	cfg.MaxLength = base.MaxLength
	if cfg.Band == 0 {
		cfg.Band = max(4, cfg.MaxLength/10)
	}
	engine, err := newEngine(normed, base, cfg)
	if err != nil {
		return nil, fmt.Errorf("onex: OpenWithBase: %w", err)
	}
	db := &DB{raw: raw, normed: normed, base: base, engine: engine, cfg: cfg, version: 1, id: lastDBID.Add(1), store: cfg.Store}
	if db.store != nil {
		applyFsyncEvery(db.store, cfg.FsyncEvery)
		// Same contract as Open: persist the opening state immediately so a
		// crash right after still warm-starts. On failure the engine is left
		// open for the caller to close.
		if err := db.store.Snapshot(db.stateLocked()); err != nil {
			return nil, fmt.Errorf("onex: OpenWithBase: initial snapshot: %w", err)
		}
	}
	return db, nil
}
