package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/ts"
	"repro/onex"
)

// newHTTPServer serves an already-built Server (the fixtures here need
// construction options).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	hts := httptest.NewServer(s.Handler())
	t.Cleanup(hts.Close)
	return hts.URL
}

func decodeAnalysis(t *testing.T, raw []byte) onex.AnalysisResult {
	t.Helper()
	var res onex.AnalysisResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode analysis result: %v (%s)", err, raw)
	}
	return res
}

func analyze(t *testing.T, hts string, a onex.Analysis) onex.AnalysisResult {
	t.Helper()
	resp, raw := postJSON(t, hts+"/api/v1/datasets/growth/analyze", a)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze %+v status = %d: %s", a, resp.StatusCode, raw)
	}
	return decodeAnalysis(t, raw)
}

// TestAnalyzeRouteParity answers every analytics fixture through the
// legacy per-scenario routes and the unified /api/v1 analyze endpoint and
// requires identical payloads.
func TestAnalyzeRouteParity(t *testing.T) {
	s, hts := newTestServer(t)
	loadGrowth(t, hts)

	// Overview, fixed length.
	var legacyGroups []onex.GroupInfo
	getJSON(t, hts.URL+"/api/v1/datasets/growth/overview?length=6&k=3", &legacyGroups)
	res := analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisOverview, Length: 6, K: 3})
	if len(legacyGroups) != 3 || !reflect.DeepEqual(legacyGroups, res.Groups) {
		t.Fatalf("overview: legacy %d groups != analyze %d", len(legacyGroups), len(res.Groups))
	}
	if res.Request.Kind != onex.AnalysisOverview || res.Stats.Groups != 3 {
		t.Fatalf("analyze envelope incomplete: %+v %+v", res.Request, res.Stats)
	}

	// Length summaries.
	var legacyLens []onex.LengthSummary
	getJSON(t, hts.URL+"/api/v1/datasets/growth/lengths", &legacyLens)
	res = analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisLengthSummaries})
	if len(legacyLens) == 0 || !reflect.DeepEqual(legacyLens, res.LengthSummaries) {
		t.Fatalf("lengths: legacy %+v != analyze %+v", legacyLens, res.LengthSummaries)
	}

	// Group drill-down.
	var legacyMembers []onex.Member
	getJSON(t, hts.URL+"/api/v1/datasets/growth/groups/6/0", &legacyMembers)
	res = analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisGroupMembers, Length: 6})
	if len(legacyMembers) == 0 || !reflect.DeepEqual(legacyMembers, res.Members) {
		t.Fatalf("groups: legacy %d members != analyze %d", len(legacyMembers), len(res.Members))
	}

	// Seasonal.
	resp, raw := postJSON(t, hts.URL+"/api/v1/datasets/growth/query/seasonal",
		SeasonalRequest{Series: "NY", MinLength: 4, MaxLength: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy seasonal status = %d: %s", resp.StatusCode, raw)
	}
	var legacyPats []onex.Pattern
	if err := json.Unmarshal(raw, &legacyPats); err != nil {
		t.Fatal(err)
	}
	res = analyze(t, hts.URL, onex.Analysis{
		Kind: onex.AnalysisSeasonal, Series: "NY", Lengths: onex.Lengths{Min: 4, Max: 8},
	})
	if len(legacyPats) == 0 || !reflect.DeepEqual(legacyPats, res.Patterns) {
		t.Fatalf("seasonal: legacy %+v != analyze %+v", legacyPats, res.Patterns)
	}

	// Threshold recommendations.
	var legacyRecs []onex.Recommendation
	getJSON(t, hts.URL+"/api/v1/datasets/growth/thresholds", &legacyRecs)
	res = analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisThresholds})
	if len(legacyRecs) == 0 || !reflect.DeepEqual(legacyRecs, res.Thresholds.Recommendations) {
		t.Fatalf("thresholds: legacy %+v != analyze %+v", legacyRecs, res.Thresholds)
	}
	if len(res.Thresholds.Sample) == 0 || res.Thresholds.ProbeLength <= 0 {
		t.Fatalf("thresholds: distribution missing: %+v", res.Thresholds)
	}

	// Sweep and common-patterns have no legacy route; parity against the
	// library on the server's own DB.
	db, ok := s.db("growth")
	if !ok {
		t.Fatal("growth not registered")
	}
	ctx := context.Background()
	lib, err := db.Analyze(ctx, onex.Analysis{
		Kind:       onex.AnalysisSimilaritySweep,
		Values:     mustSeries(t, db, "MA")[0:8],
		Thresholds: []float64{0.05, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	libSweep := lib.Sweep
	res = analyze(t, hts.URL, onex.Analysis{
		Kind:       onex.AnalysisSimilaritySweep,
		Window:     onex.Window{Series: "MA", Start: 0, Length: 8},
		Thresholds: []float64{0.05, 0.1},
	})
	if !reflect.DeepEqual(libSweep, res.Sweep) {
		t.Fatalf("sweep: library %+v != analyze %+v", libSweep, res.Sweep)
	}

	lib, err = db.Analyze(ctx, onex.Analysis{Kind: onex.AnalysisCommonPatterns, MinSeries: 3, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	libCommon := lib.Common
	res = analyze(t, hts.URL, onex.Analysis{Kind: onex.AnalysisCommonPatterns, MinSeries: 3, K: 4})
	if len(libCommon) == 0 || !reflect.DeepEqual(libCommon, res.Common) {
		t.Fatalf("common: library %d != analyze %d", len(libCommon), len(res.Common))
	}

	// The analyze endpoint answers under the unversioned prefix too.
	resp, raw = postJSON(t, hts.URL+"/api/datasets/growth/analyze",
		onex.Analysis{Kind: onex.AnalysisLengthSummaries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api alias status = %d: %s", resp.StatusCode, raw)
	}
	if got := decodeAnalysis(t, raw); !reflect.DeepEqual(got.LengthSummaries, legacyLens) {
		t.Fatal("/api alias returned a different payload")
	}
}

func mustSeries(t *testing.T, db *onex.DB, name string) []float64 {
	t.Helper()
	vals, err := db.SeriesValues(name)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestLegacyRoutesTolerateSloppyBounds pins the historical contract of
// the per-scenario routes: non-positive or inverted length bounds answer
// 200 with the indexed-range/empty result, never a validation error —
// even though the unified analyze endpoint rejects them.
func TestLegacyRoutesTolerateSloppyBounds(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	resp, raw := postJSON(t, hts.URL+"/api/datasets/growth/query/seasonal",
		SeasonalRequest{Series: "NY", MinLength: -1, MaxLength: -1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seasonal negative bounds status = %d: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, hts.URL+"/api/datasets/growth/query/seasonal",
		SeasonalRequest{Series: "NY", MinLength: 20, MaxLength: 10})
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(raw)) != "[]" {
		t.Fatalf("seasonal inverted bounds: status %d, body %s", resp.StatusCode, raw)
	}
	var groups []onex.GroupInfo
	if got := getJSON(t, hts.URL+"/api/datasets/growth/overview?length=-5", &groups); got.StatusCode != http.StatusOK {
		t.Fatalf("overview negative length status = %d", got.StatusCode)
	}
	if len(groups) != 0 {
		t.Fatalf("overview negative length returned %d groups, want none", len(groups))
	}

	// The unified endpoint, by contrast, surfaces the typed rejection.
	resp, _ = postJSON(t, hts.URL+"/api/v1/datasets/growth/analyze",
		onex.Analysis{Kind: onex.AnalysisSeasonal, Series: "NY", Lengths: onex.Lengths{Min: -1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("analyze negative bounds status = %d, want 400", resp.StatusCode)
	}
}

func TestAnalyzeRouteErrors(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	for _, bad := range []string{
		`{`,
		`{}`,
		`{"kind":"bogus"}`,
		`{"kind":"seasonal"}`,
		`{"kind":"similarity-sweep","values":[1,2,3]}`,
		`{"kind":"seasonal","series":"ghost"}`,
	} {
		resp, err := http.Post(hts.URL+"/api/v1/datasets/growth/analyze", "application/json",
			strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Post(hts.URL+"/api/v1/datasets/ghost/analyze", "application/json",
		strings.NewReader(`{"kind":"overview"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost dataset status = %d, want 404", resp.StatusCode)
	}
}

// TestLoadDataDirAllowlist covers the load endpoint's optional data
// directory: servers built with WithDataDir reject file sources escaping
// it, servers without one keep the historical load-anything behaviour.
func TestLoadDataDirAllowlist(t *testing.T) {
	dataDir := t.TempDir()
	outside := t.TempDir()
	d := gen.Matters(gen.MattersOptions{Indicator: gen.GrowthRate, Periods: 12})
	inside := filepath.Join(dataDir, "growth.csv")
	if err := ts.SaveFile(inside, d); err != nil {
		t.Fatal(err)
	}
	escaped := filepath.Join(outside, "secret.csv")
	if err := ts.SaveFile(escaped, d); err != nil {
		t.Fatal(err)
	}

	s := New(WithDataDir(dataDir))
	hts := newHTTPServer(t, s)

	load := func(source string) int {
		body, _ := json.Marshal(LoadRequest{Name: "x", Source: source, MinLength: 4, MaxLength: 8})
		resp, err := http.Post(hts+"/api/v1/datasets/load", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := load("file:" + inside); got != http.StatusOK {
		t.Fatalf("inside path status = %d, want 200", got)
	}
	if got := load("file:" + escaped); got != http.StatusForbidden {
		t.Fatalf("outside path status = %d, want 403", got)
	}
	if got := load("file:" + filepath.Join(dataDir, "..", filepath.Base(outside), "secret.csv")); got != http.StatusForbidden {
		t.Fatalf("traversal path status = %d, want 403", got)
	}
	if got := load("file:/etc/hostname"); got != http.StatusForbidden {
		t.Fatalf("absolute path status = %d, want 403", got)
	}
	// Generator sources are unaffected by the allowlist.
	if got := load("walks"); got != http.StatusOK {
		t.Fatalf("generator source status = %d, want 200", got)
	}
	// A symlink inside the data directory pointing outside is rejected.
	link := filepath.Join(dataDir, "link.csv")
	if err := os.Symlink(escaped, link); err == nil {
		if got := load("file:" + link); got != http.StatusForbidden {
			t.Fatalf("symlink escape status = %d, want 403", got)
		}
	}

	// Default New keeps the historical behaviour.
	open := New()
	openURL := newHTTPServer(t, open)
	body, _ := json.Marshal(LoadRequest{Name: "x", Source: "file:" + escaped, MinLength: 4, MaxLength: 8})
	resp, err := http.Post(openURL+"/api/v1/datasets/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unrestricted server status = %d, want 200", resp.StatusCode)
	}
}
