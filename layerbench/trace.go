package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of one
// user request share Req; a replayed lower-layer call names the span it
// replays one layer down as its Parent.
type span struct {
	Req    uint64        `json:"req"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced phase runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  uint64
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// settle runs a collection before a span is timed when tracing is on. A
// replay runs right after the call it replays, so without it the replay
// would inherit the collection the first call's garbage triggered, and
// subtracting the two spans would charge that collection to the wrong
// layer.
func (t *tracer) settle() {
	if t != nil {
		runtime.GC()
	}
}

// request allocates a request ID (0 when tracing is off).
func (t *tracer) request() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// record stores one span; start and end are wall-clock instants.
func (t *tracer) record(req uint64, name, layer, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: req, Name: name, Layer: layer, Parent: parent,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the self time of every span of that
// name: its duration minus the durations of the spans of the same request
// that name it as Parent. Replayed children run after their parent rather
// than inside it, so they are subtracted by duration, not by overlap.
func selfTimes(spans []span) map[string][]time.Duration {
	type key struct {
		req  uint64
		name string
	}
	children := map[key]time.Duration{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += s.dur()
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur()-children[key{s.Req, s.Name}])
	}
	return out
}

// layerSelf sums self time per layer and returns the layers in descending
// order of their share.
func layerSelf(spans []span) (layers []string, self map[string]time.Duration) {
	byName := selfTimes(spans)
	layerOf := map[string]string{}
	for _, s := range spans {
		layerOf[s.Name] = s.Layer
	}
	self = map[string]time.Duration{}
	for name, ds := range byName {
		for _, d := range ds {
			self[layerOf[name]] += d
		}
	}
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if self[layers[i]] != self[layers[j]] {
			return self[layers[i]] > self[layers[j]]
		}
		return layers[i] < layers[j]
	})
	return layers, self
}

// finishTrace writes the spans, reports self time per layer and the
// tracing overhead (traced over untraced p50 of the workload's main call).
func finishTrace(r *report, cfg runConfig, tr *tracer, mismatches int, untracedP50, tracedP50 float64) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	for name, ds := range self {
		var s samples
		for _, d := range ds {
			s = append(s, d)
		}
		r.note("self %-20s p50 %8.3f ms over %d spans", name, s.pct(50), len(s))
	}
	if ds, ok := self["onex.Find"]; ok {
		r.set("onex.find_self_ms_p50", "ms", samples(ds).pct(50))
	}
	layers, total := layerSelf(spans)
	var all time.Duration
	for _, l := range layers {
		all += total[l]
	}
	for _, l := range layers {
		r.note("layer %-10s self %10.1f ms  share %5.1f%%", l, ms(total[l]), 100*float64(total[l])/float64(max(all, 1)))
	}
	r.set("trace.overhead_ratio", "ratio", tracedP50/untracedP50)
	r.set("trace.replay_mismatches", "count", float64(mismatches))
	if mismatches > 0 {
		r.wrong += mismatches
	}
	path := fmt.Sprintf("%s/spans-%s-seed%d.json", cfg.outDir, r.workload, cfg.seed)
	if err := tr.write(path); err != nil {
		r.note("spans not written: %v", err)
	} else {
		r.note("spans: %d written to %s", len(spans), path)
	}
}
