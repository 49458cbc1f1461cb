package server

import (
	"fmt"
	"html/template"
	"net/http"

	"repro/internal/dist"
	"repro/internal/viz"
	"repro/onex"
)

// The explore page is the server-rendered form of the demo's Similarity
// View (paper Fig 2): overview pane, query selection (stacked lines),
// query preview, results pane with warped-point matching, and the
// threshold sweep — one page per dataset, parameterized by query window.
//
//	GET /explore/{name}?series=MA&start=0&len=12

var explorePage = template.Must(template.New("explore").Parse(`<!doctype html>
<html><head><title>ONEX — {{.Name}}</title>
<style>
 body { font-family: sans-serif; margin: 1.5em; color: #222; }
 .row { display: flex; flex-wrap: wrap; gap: 16px; margin-bottom: 16px; }
 .pane { border: 1px solid #ddd; padding: 8px; border-radius: 4px; }
 form { margin-bottom: 1em; }
 td, th { padding: 2px 10px; border-bottom: 1px solid #eee; text-align: right; }
 h2 { font-size: 1.05em; }
</style></head>
<body>
<h1>Similarity View — {{.Name}}</h1>
<form method="GET">
 series <input name="series" value="{{.Series}}" size="8">
 start <input name="start" value="{{.Start}}" size="4">
 len <input name="len" value="{{.Len}}" size="4">
 <input type="submit" value="explore">
</form>
{{if .Error}}<p style="color:#b00">{{.Error}}</p>{{end}}
<div class="row">
 <div class="pane"><h2>Overview — similarity groups</h2>{{.Overview}}</div>
 <div class="pane"><h2>Query selection</h2>{{.Selection}}</div>
</div>
<div class="row">
 <div class="pane"><h2>Query preview</h2>{{.Preview}}</div>
 <div class="pane"><h2>Results — best match (warped points)</h2>{{.Results}}</div>
</div>
<div class="row">
 <div class="pane"><h2>Similarity vs threshold</h2>
 <table><tr><th>max dist</th><th>matches</th></tr>
 {{range .Sweep}}<tr><td>{{printf "%.4f" .MaxDist}}</td><td>{{.Matches}}</td></tr>{{end}}
 </table></div>
</div>
</body></html>
`))

type exploreData struct {
	Name      string
	Series    string
	Start     int
	Len       int
	Error     string
	Overview  template.HTML
	Selection template.HTML
	Preview   template.HTML
	Results   template.HTML
	Sweep     []sweepRow
}

type sweepRow struct {
	MaxDist float64
	Matches int
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	names := db.SeriesNames()
	data := exploreData{
		Name:   r.PathValue("name"),
		Series: r.URL.Query().Get("series"),
		Start:  queryInt(r, "start", 0),
		Len:    queryInt(r, "len", 0),
	}
	if data.Series == "" && len(names) > 0 {
		data.Series = names[0]
	}

	// Overview pane. The walk is context-aware, so closing the browser tab
	// cancels it instead of leaving it running to completion.
	ovr, err := db.Analyze(r.Context(), onex.Analysis{Kind: onex.AnalysisOverview, K: 8})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells := make([]viz.OverviewCell, len(ovr.Groups))
	//onex:nopoll rendering an already-computed overview of at most 8 tiles; the walk polled inside Analyze
	for i, g := range ovr.Groups {
		cells[i] = viz.OverviewCell{Rep: g.Rep, Count: g.Count,
			Label: fmt.Sprintf("len %d · n=%d", g.Length, g.Count)}
	}
	data.Overview = template.HTML(viz.OverviewGrid("", cells, 4, 104, 64))

	// Query selection pane: the chosen series plus a few neighbors.
	var stacked []viz.NamedSeries
	for i, n := range names {
		if n == data.Series || len(stacked) < 5 && i < 5 {
			vals, err := db.SeriesValues(n)
			if err == nil {
				stacked = append(stacked, viz.NamedSeries{Name: n, Values: vals})
			}
		}
	}
	data.Selection = template.HTML(viz.StackedLineChart("", stacked, 420, 40))

	// Preview + results, only when a window is selected.
	vals, err := db.SeriesValues(data.Series)
	if err != nil {
		data.Error = err.Error()
		renderExplore(w, data)
		return
	}
	if data.Len <= 0 {
		data.Len = len(vals) / 2
		data.Start = len(vals) - data.Len
	}
	if data.Start < 0 || data.Start+data.Len > len(vals) {
		data.Error = fmt.Sprintf("window [%d,%d) out of range", data.Start, data.Start+data.Len)
		renderExplore(w, data)
		return
	}
	q := vals[data.Start : data.Start+data.Len]
	data.Preview = template.HTML(viz.LineChart("", []viz.NamedSeries{
		{Name: fmt.Sprintf("%s[%d:%d)", data.Series, data.Start, data.Start+data.Len), Values: q},
	}, 420, 180))

	res, err := db.Find(r.Context(), onex.Query{
		Window:  onex.Window{Series: data.Series, Start: data.Start, Length: data.Len},
		Exclude: onex.Exclude{Self: true},
	})
	if err != nil {
		data.Error = err.Error()
		renderExplore(w, data)
		return
	}
	m := res.Matches[0]
	path := make(dist.WarpPath, len(m.Path))
	for i, p := range m.Path {
		path[i] = dist.PathStep{I: p[0], J: p[1]}
	}
	data.Results = template.HTML(viz.WarpChart(
		fmt.Sprintf("%s vs %s[%d:%d), DTW=%.4f", data.Series, m.Series, m.Start, m.Start+m.Length, m.Dist),
		viz.NamedSeries{Name: data.Series, Values: q},
		viz.NamedSeries{Name: m.Series, Values: m.Values},
		path, 520, 240))

	// Threshold sweep around the found distance.
	baseD := m.Dist
	if baseD <= 0 {
		baseD = db.ST() / 4
	}
	thresholds := []float64{baseD, baseD * 1.5, baseD * 2, baseD * 3, baseD * 5}
	sweep, err := db.Analyze(r.Context(), onex.Analysis{
		Kind:       onex.AnalysisSimilaritySweep,
		Values:     q,
		Thresholds: thresholds,
	})
	if err == nil {
		for _, p := range sweep.Sweep {
			data.Sweep = append(data.Sweep, sweepRow{MaxDist: p.MaxDist, Matches: p.Matches})
		}
	}
	renderExplore(w, data)
}

func renderExplore(w http.ResponseWriter, data exploreData) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = explorePage.Execute(w, data)
}

func (s *Server) handleVizThresholds(w http.ResponseWriter, r *http.Request) {
	db, ok := s.db(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "dataset %q not loaded", r.PathValue("name"))
		return
	}
	res, err := db.Analyze(r.Context(), onex.Analysis{Kind: onex.AnalysisThresholds})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	dists, probe, recs := res.Thresholds.Sample, res.Thresholds.ProbeLength, res.Thresholds.Recommendations
	markers := make([]viz.HistogramMarker, len(recs))
	for i, rec := range recs {
		markers[i] = viz.HistogramMarker{Value: rec.ST, Label: rec.Label}
	}
	writeSVG(w, viz.Histogram(
		fmt.Sprintf("pairwise ED per point — %s (probe length %d)", r.PathValue("name"), probe),
		dists, 40, markers, 560, 240))
}
