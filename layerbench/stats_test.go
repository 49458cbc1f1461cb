package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPctNearestRank(t *testing.T) {
	var s samples
	for i := 10; i >= 1; i-- { // unsorted input
		s.add(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(samples(nil).pct(50)) {
		t.Error("pct of no samples should be NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Req: 1, Name: "onex.Find", Layer: "onex", Start: 0, End: 10 * ms},
		{Req: 1, Name: "core.Find", Layer: "core", Parent: "onex.Find", Start: 10 * ms, End: 17 * ms},
		{Req: 2, Name: "onex.AddSeries", Layer: "onex", Start: 20 * ms, End: 40 * ms},
		{Req: 2, Name: "grouping.AddSeries", Layer: "grouping", Parent: "onex.AddSeries", Start: 40 * ms, End: 52 * ms},
		{Req: 2, Name: "store.Append", Layer: "store", Parent: "onex.AddSeries", Start: 52 * ms, End: 55 * ms},
		// A child of another request must not be subtracted.
		{Req: 3, Name: "core.Find", Layer: "core", Parent: "onex.AddSeries", Start: 60 * ms, End: 61 * ms},
	}
	self := selfTimes(spans)
	for name, want := range map[string][]time.Duration{
		"onex.Find":          {3 * ms},
		"core.Find":          {7 * ms, 1 * ms},
		"onex.AddSeries":     {5 * ms},
		"grouping.AddSeries": {12 * ms},
		"store.Append":       {3 * ms},
	} {
		got := self[name]
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	layers, total := layerSelf(spans)
	if layers[0] != "grouping" || total["onex"] != 8*ms || total["core"] != 8*ms {
		t.Errorf("layerSelf = %v %v", layers, total)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	ms := time.Millisecond
	// Due at 100ms, released 2ms late, queued behind a stalled request and
	// answered at 150ms: the whole wait counts from the due time.
	r := openLoopRequest{due: 100 * ms, released: 102 * ms, done: 150 * ms}
	if r.latency() != 50*ms {
		t.Errorf("latency = %v, want 50ms", r.latency())
	}
	if r.late() != 2*ms {
		t.Errorf("late = %v, want 2ms", r.late())
	}
}

func TestOverlapsAny(t *testing.T) {
	ivs := []interval{{10, 20}, {30, 40}}
	for _, c := range []struct {
		iv   interval
		want bool
	}{
		{interval{0, 10}, false}, {interval{0, 11}, true}, {interval{20, 30}, false},
		{interval{25, 35}, true}, {interval{39, 50}, true}, {interval{40, 50}, false}, {interval{12, 13}, true},
	} {
		if got := overlapsAny(c.iv, ivs); got != c.want {
			t.Errorf("overlapsAny(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

// TestExploreCost checks the mix weighting of explore's cpu_ms_per_op: each
// search kind's mean weighted by its share of exploreCycle's searches,
// whatever the number of calls each kind got; analyses are not charged.
func TestExploreCost(t *testing.T) {
	ms := time.Millisecond
	ph := explorePhase{cpu: map[string]samples{
		"approx":                   {10 * ms, 20 * ms, 15 * ms},
		"exact":                    {40 * ms},
		"stream":                   {30 * ms, 30 * ms},
		"analyze/seasonal":         {3 * ms},
		"analyze/overview":         {6 * ms},
		"analyze/similarity-sweep": {9 * ms, 9 * ms},
	}}
	want := (13*15 + 4*40 + 2*30) / 19.0
	if got := exploreCost(newReport("explore"), ph); math.Abs(got-want) > 1e-9 {
		t.Errorf("exploreCost = %v, want %v", got, want)
	}
}
