// Cross-module integration tests: each test drives a complete user journey
// through the public surfaces (generators -> facade -> persistence ->
// HTTP server -> visualization), asserting consistency between layers.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/ts"
	"repro/internal/viz"
	"repro/onex"
)

// TestPipelineGenerateSaveReloadQuery exercises: generate -> save dataset
// to disk -> reload -> open -> save base -> reopen from base -> identical
// answers across the persistence boundary.
func TestPipelineGenerateSaveReloadQuery(t *testing.T) {
	dir := t.TempDir()
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 16})

	csvPath := filepath.Join(dir, "growth.csv")
	if err := ts.SaveFile(csvPath, data); err != nil {
		t.Fatal(err)
	}
	reloaded, err := onex.LoadDataset(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := onex.Open(reloaded, onex.Config{MinLength: 4, MaxLength: 9})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := bestOtherSeries(db, "MA", 0, 8)
	if err != nil {
		t.Fatal(err)
	}

	basePath := filepath.Join(dir, "growth.base")
	if err := db.SaveBase(basePath); err != nil {
		t.Fatal(err)
	}
	db2, err := onex.OpenWithBase(reloaded, basePath, onex.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := bestOtherSeries(db2, "MA", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Series != m2.Series || m1.Start != m2.Start || math.Abs(m1.Dist-m2.Dist) > 1e-12 {
		t.Fatalf("answers diverge across base persistence: %+v vs %+v", m1, m2)
	}
}

// TestPipelineServerMatchesLibrary verifies that the HTTP layer returns the
// same similarity answer as a direct library call on the same data.
func TestPipelineServerMatchesLibrary(t *testing.T) {
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 16})
	db, err := onex.Open(data, onex.Config{MinLength: 4, MaxLength: 9})
	if err != nil {
		t.Fatal(err)
	}
	want, err := bestForSeries(db, "MA", 2, 8)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New()
	srv.AddDB("growth", db)
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	body, _ := json.Marshal(server.QueryRequest{Series: "MA", Start: 2, Length: 8})
	resp, err := http.Post(hts.URL+"/api/datasets/growth/query/similarity", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []onex.Match
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("server returned %d matches", len(got))
	}
	if got[0].Series != want.Series || got[0].Start != want.Start ||
		math.Abs(got[0].Dist-want.Dist) > 1e-12 {
		t.Fatalf("server answer %+v != library answer %+v", got[0], want)
	}
}

// TestPipelineSeasonalToVisualization drives the Fig 4 flow: seasonal query
// results render into a well-formed seasonal view whose segments equal the
// pattern's occurrences.
func TestPipelineSeasonalToVisualization(t *testing.T) {
	data := gen.ElectricityLoad(gen.ElectricityOptions{Households: 1, Days: 14, SamplesPerDay: 12})
	db, err := onex.Open(data, onex.Config{MinLength: 12, MaxLength: 12, Band: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Analyze(context.Background(), onex.Analysis{
		Kind:           onex.AnalysisSeasonal,
		Series:         "household-00",
		Lengths:        onex.Lengths{Min: 12, Max: 12},
		MinOccurrences: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pats := res.Patterns
	if len(pats) == 0 {
		t.Fatal("no seasonal pattern in daily-cycle data")
	}

	srv := server.New()
	srv.AddDB("power", db)
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	resp, err := http.Get(hts.URL + "/viz/power/seasonal.svg?series=household-00&len=12")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(svg, "<svg") {
		t.Fatalf("seasonal svg: %d", resp.StatusCode)
	}
	// The base series line plus one polyline per occurrence of the top
	// pattern.
	if got := strings.Count(svg, "<polyline"); got != 1+pats[0].Occurrences {
		t.Fatalf("seasonal view polylines = %d, want %d", got, 1+pats[0].Occurrences)
	}
}

// TestPipelineIncrementalInsertEndToEnd: add a series over HTTP, then find
// it from a fresh query, and confirm the dataset stats moved.
func TestPipelineIncrementalInsertEndToEnd(t *testing.T) {
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 16})
	db, err := onex.Open(data, onex.Config{MinLength: 4, MaxLength: 9})
	if err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Subsequences

	srv := server.New()
	srv.AddDB("growth", db)
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	ma, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	clone := make([]float64, len(ma))
	for i, v := range ma {
		clone[i] = v + 0.0002
	}
	body, _ := json.Marshal(server.AddSeriesRequest{Series: "MA-clone", Values: clone})
	resp, err := http.Post(hts.URL+"/api/datasets/growth/series", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add series status %d", resp.StatusCode)
	}
	if db.Stats().Subsequences <= before {
		t.Fatal("insert did not grow the base")
	}
	m, err := bestOtherSeries(db, "MA", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Series != "MA-clone" {
		t.Fatalf("clone not found as best match, got %s", m.Series)
	}
}

// TestPipelineServingTierEndToEnd drives the full serving tier at once —
// versioned result cache, admission gate, rate limiter (configured too
// loose to fire), and /metrics — through one load→query→ingest→query
// journey, asserting cached answers agree with direct library calls
// before and after the ingest.
func TestPipelineServingTierEndToEnd(t *testing.T) {
	data := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 16})
	db, err := onex.Open(data, onex.Config{MinLength: 4, MaxLength: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.WithCache(1<<20), server.WithRateLimit(1e6, 1e6), server.WithMaxInflight(4, 16))
	srv.AddDB("growth", db)
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	post := func(path, body string) (int, []byte) {
		resp, err := http.Post(hts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	const q = `{"window":{"series":"MA","start":2,"length":8},"k":1,"mode":"exact","exclude":{"self":true}}`
	st, first := post("/api/v1/datasets/growth/query", q)
	if st != http.StatusOK {
		t.Fatalf("query status %d: %s", st, first)
	}
	st, repeat := post("/api/v1/datasets/growth/query", q)
	if st != http.StatusOK || !bytes.Equal(first, repeat) {
		t.Fatal("repeated query not served byte-identically from cache")
	}
	var res onex.Result
	if err := json.Unmarshal(repeat, &res); err != nil {
		t.Fatal(err)
	}
	want, err := bestOtherSeries(db, "MA", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Window exclude-self differs from exclude-source only when the best
	// match is in MA itself; compare against the appropriate oracle.
	if len(res.Matches) == 0 || res.Matches[0].Dist > want.Dist+1e-9 && res.Matches[0].Series != "MA" {
		t.Fatalf("cached answer %+v worse than library answer %+v", res.Matches, want)
	}

	// Ingest a decisive new best match; the cache must refresh.
	ma, err := db.SeriesValues("MA")
	if err != nil {
		t.Fatal(err)
	}
	clone := make([]float64, len(ma))
	for i, v := range ma {
		clone[i] = v + 0.0001
	}
	cb, _ := json.Marshal(map[string]any{"series": "MA-twin", "values": clone})
	if st, body := post("/api/v1/datasets/growth/series", string(cb)); st != http.StatusOK {
		t.Fatalf("ingest status %d: %s", st, body)
	}
	st, after := post("/api/v1/datasets/growth/query", q)
	if st != http.StatusOK {
		t.Fatalf("post-ingest query status %d", st)
	}
	var res2 onex.Result
	if err := json.Unmarshal(after, &res2); err != nil {
		t.Fatal(err)
	}
	if len(res2.Matches) == 0 || res2.Matches[0].Series != "MA-twin" {
		t.Fatalf("post-ingest cached query missed the new best match: %+v", res2.Matches)
	}

	// /metrics reflects the journey: hits, misses, and the bumped version.
	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, needle := range []string{
		`onex_dataset_version{dataset="growth"} 2`,
		`onex_http_requests_total{endpoint="query",code="200"} 3`,
		`onex_http_requests_total{endpoint="ingest",code="200"} 1`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("/metrics missing %q", needle)
		}
	}
	if !strings.Contains(text, "onex_cache_hits_total 1") {
		t.Errorf("/metrics cache hits not 1:\n%s", text)
	}
}

// TestDeterminism: generators, bases and rendered charts are pure
// functions of their seeds — the property every EXPERIMENTS.md number
// relies on.
func TestDeterminism(t *testing.T) {
	g1 := gen.Matters(gen.MattersOptions{Indicator: gen.TechEmployment, Seed: 3})
	g2 := gen.Matters(gen.MattersOptions{Indicator: gen.TechEmployment, Seed: 3})
	for i := range g1.Series {
		for j := range g1.Series[i].Values {
			if g1.Series[i].Values[j] != g2.Series[i].Values[j] {
				t.Fatal("generator not deterministic")
			}
		}
	}
	db1, err := onex.Open(g1, onex.Config{MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := onex.Open(g2, onex.Config{MinLength: 4, MaxLength: 8})
	if err != nil {
		t.Fatal(err)
	}
	if db1.ST() != db2.ST() || db1.Stats().Groups != db2.Stats().Groups {
		t.Fatal("base construction not deterministic")
	}
	m1, err := bestOtherSeries(db1, "MA", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := bestOtherSeries(db2, "MA", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Series != m2.Series || m1.Dist != m2.Dist {
		t.Fatal("queries not deterministic")
	}
	// Chart rendering is pure: same inputs, byte-identical SVG.
	v1, _ := db1.SeriesValues("MA")
	svgA := viz.LineChart("t", []viz.NamedSeries{{Name: "MA", Values: v1}}, 300, 150)
	svgB := viz.LineChart("t", []viz.NamedSeries{{Name: "MA", Values: v1}}, 300, 150)
	if svgA != svgB {
		t.Fatal("chart rendering not deterministic")
	}
}

// TestPipelineExactVsApproxConsistency: on the same data, the certified
// exact mode must never return a worse match than approximate mode.
func TestPipelineExactVsApproxConsistency(t *testing.T) {
	data := gen.CBF(gen.CBFOptions{PerClass: 4, Length: 48})
	approx, err := onex.Open(data, onex.Config{MinLength: 8, MaxLength: 12, ST: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := onex.Open(data, onex.Config{MinLength: 8, MaxLength: 12, ST: 0.12, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		name  string
		start int
		l     int
	}{
		{"cbf-cylinder-00", 3, 10},
		{"cbf-bell-01", 0, 8},
		{"cbf-funnel-02", 12, 12},
	} {
		ma, err := bestForSeries(approx, probe.name, probe.start, probe.l)
		if err != nil {
			t.Fatal(err)
		}
		me, err := bestForSeries(exact, probe.name, probe.start, probe.l)
		if err != nil {
			t.Fatal(err)
		}
		if me.Dist > ma.Dist+1e-9 {
			t.Fatalf("%s: exact %g worse than approx %g", probe.name, me.Dist, ma.Dist)
		}
	}
}

// bestForSeries finds the window most similar to series[start:start+length)
// outside the query's own overlapping windows.
func bestForSeries(db *onex.DB, series string, start, length int) (onex.Match, error) {
	return bestMatch(db, onex.Query{
		Window:  onex.Window{Series: series, Start: start, Length: length},
		Exclude: onex.Exclude{Self: true},
	})
}

// bestOtherSeries finds the window most similar to
// series[start:start+length) in any other series.
func bestOtherSeries(db *onex.DB, series string, start, length int) (onex.Match, error) {
	return bestMatch(db, onex.Query{
		Window:  onex.Window{Series: series, Start: start, Length: length},
		Exclude: onex.Exclude{Series: []string{series}},
	})
}

func bestMatch(db *onex.DB, q onex.Query) (onex.Match, error) {
	res, err := db.Find(context.Background(), q)
	if err != nil {
		return onex.Match{}, err
	}
	return res.Matches[0], nil
}
