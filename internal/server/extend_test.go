package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/onex"
)

func TestAddSeriesEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	// Fetch MA, post a near-clone, and verify it becomes MA's best match.
	var sv struct {
		Values []float64 `json:"values"`
	}
	getJSON(t, hts.URL+"/api/datasets/growth/series/MA", &sv)
	clone := make([]float64, len(sv.Values))
	for i, v := range sv.Values {
		clone[i] = v + 0.0001
	}
	body, _ := json.Marshal(AddSeriesRequest{Series: "MA2", Values: clone})
	resp, err := http.Post(hts.URL+"/api/datasets/growth/series", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add series status = %d", resp.StatusCode)
	}

	qbody, _ := json.Marshal(QueryRequest{Series: "MA", Start: 0, Length: 8, ExcludeSource: true})
	qresp, err := http.Post(hts.URL+"/api/datasets/growth/query/similarity", "application/json", bytes.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var ms []onex.Match
	if err := json.NewDecoder(qresp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].Series != "MA2" {
		t.Fatalf("inserted clone not found as best match: %+v", ms)
	}

	// Bad requests.
	for _, bad := range []string{`{`, `{}`, `{"series":"MA","values":[1,2]}`} {
		r2, err := http.Post(hts.URL+"/api/datasets/growth/series", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode == http.StatusOK {
			t.Fatalf("bad add-series body %q accepted", bad)
		}
	}
	// Unknown dataset.
	r3, err := http.Post(hts.URL+"/api/datasets/ghost/series", "application/json",
		strings.NewReader(`{"series":"x","values":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost dataset add status = %d", r3.StatusCode)
	}
}

func TestRangeEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	body, _ := json.Marshal(RangeRequest{Series: "MA", Start: 0, Length: 8, MaxDist: 0.2, Limit: 10})
	resp, err := http.Post(hts.URL+"/api/datasets/growth/query/range", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range status = %d", resp.StatusCode)
	}
	var ms []onex.Match
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("range query found nothing within a generous threshold")
	}
	if len(ms) > 10 {
		t.Fatal("limit ignored")
	}
	for _, m := range ms {
		if m.Dist > 0.2+1e-9 {
			t.Fatalf("match beyond threshold: %g", m.Dist)
		}
	}

	// A zero threshold means exact matches only: the query window itself.
	var exact []onex.Match
	rz, raw := postJSON(t, hts.URL+"/api/datasets/growth/query/range", RangeRequest{Series: "MA", Start: 0, Length: 8})
	if rz.StatusCode != http.StatusOK {
		t.Fatalf("zero-threshold range status = %d: %s", rz.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &exact); err != nil {
		t.Fatal(err)
	}
	if len(exact) == 0 || exact[0].Series != "MA" || exact[0].Start != 0 || exact[0].Length != 8 {
		t.Fatalf("zero-threshold range missed the query window: %+v", exact)
	}
	for _, m := range exact {
		if m.Dist != 0 {
			t.Fatalf("zero-threshold range returned dist %g", m.Dist)
		}
	}

	// Ad-hoc values variant.
	body2, _ := json.Marshal(RangeRequest{Values: []float64{2, 2.5, 3, 2.5, 2}, MaxDist: 5})
	resp2, err := http.Post(hts.URL+"/api/datasets/growth/query/range", "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("values range status = %d", resp2.StatusCode)
	}

	// Bad requests.
	for _, bad := range []string{`{`, `{"max_dist":1}`, `{"series":"MA","start":0,"length":9999,"max_dist":1}`,
		`{"series":"MA","start":0,"length":8,"max_dist":-0.5}`} {
		r2, err := http.Post(hts.URL+"/api/datasets/growth/query/range", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode == http.StatusOK {
			t.Fatalf("bad range body %q accepted", bad)
		}
	}
}

func TestExplorePage(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	resp, err := http.Get(hts.URL + "/explore/growth?series=MA&start=2&len=8")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d", resp.StatusCode)
	}
	for _, want := range []string{"Similarity View", "<svg", "Results", "max dist"} {
		if !strings.Contains(body, want) {
			t.Fatalf("explore page missing %q", want)
		}
	}
	// Defaults (no query params) still render: picks the first series and
	// brushes its second half.
	resp2, err := http.Get(hts.URL + "/explore/growth")
	if err != nil {
		t.Fatal(err)
	}
	body2 := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK || !strings.Contains(body2, "<svg") {
		t.Fatalf("default explore failed: %d", resp2.StatusCode)
	}
	// Bad window reports the error inline, not a 500.
	resp3, err := http.Get(hts.URL + "/explore/growth?series=MA&start=9999&len=8")
	if err != nil {
		t.Fatal(err)
	}
	body3 := readAll(t, resp3)
	if !strings.Contains(body3, "out of range") {
		t.Fatal("window error not surfaced")
	}
	// Unknown dataset 404s.
	resp4, err := http.Get(hts.URL + "/explore/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Fatal("ghost explore should 404")
	}
}

func TestVizThresholdsEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	resp, err := http.Get(hts.URL + "/viz/growth/thresholds.svg")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(body, "<svg") {
		t.Fatalf("thresholds svg: %d", resp.StatusCode)
	}
	for _, want := range []string{"tight", "balanced", "loose"} {
		if !strings.Contains(body, want) {
			t.Fatalf("threshold markers missing %q", want)
		}
	}
}

func TestGroupMembersEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)

	// Find a real group via the overview, then drill into it.
	var groups []onex.GroupInfo
	getJSON(t, hts.URL+"/api/datasets/growth/overview?length=6&k=1", &groups)
	if len(groups) == 0 {
		t.Fatal("no overview groups")
	}
	var members []onex.Member
	getJSON(t, hts.URL+"/api/datasets/growth/groups/6/0", &members)
	if len(members) != groups[0].Count {
		t.Fatalf("drill-down members %d != overview count %d", len(members), groups[0].Count)
	}
	for _, m := range members {
		if m.Series == "" || m.Length != 6 || len(m.Values) != 6 {
			t.Fatalf("malformed member %+v", m)
		}
	}
	// Bad addresses.
	for _, path := range []string{
		"/api/datasets/growth/groups/6/99999",
		"/api/datasets/growth/groups/999/0",
		"/api/datasets/growth/groups/x/y",
		"/api/datasets/ghost/groups/6/0",
	} {
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s accepted", path)
		}
	}
}

func TestLengthsEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	loadGrowth(t, hts)
	var ls []onex.LengthSummary
	getJSON(t, hts.URL+"/api/datasets/growth/lengths", &ls)
	if len(ls) == 0 {
		t.Fatal("no length summaries")
	}
	for i, s := range ls {
		if s.Groups <= 0 || s.Subsequences <= 0 {
			t.Fatalf("empty summary %+v", s)
		}
		if i > 0 && ls[i-1].Length >= s.Length {
			t.Fatal("summaries not ascending")
		}
	}
	resp, err := http.Get(hts.URL + "/api/datasets/ghost/lengths")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatal("ghost dataset lengths should 404")
	}
}
