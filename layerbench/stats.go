package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations and reports them in milliseconds.
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

// pct returns the p-th percentile (0 < p <= 100) in milliseconds by the
// nearest-rank rule, or NaN when there are no samples.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return ms(sorted[rank-1])
}

// mean returns the mean in milliseconds, or NaN when there are no samples.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return ms(sum) / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten samples beyond it among n samples, or 0 when even the median
// has fewer (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		beyond := float64(n) * (100 - p) / 100
		if beyond >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread returns the minimum and maximum of xs, for counts reported with
// their run-to-run spread.
func spread(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// lengthAt cycles through query lengths minLen..maxLen in steps of step,
// so every run sees each length equally often rather than a random draw.
func lengthAt(i, minLen, maxLen, step int) int {
	n := (maxLen-minLen)/step + 1
	return minLen + (i%n)*step
}

// openLoopRequest is one scheduled request of an open-loop generator: when
// it was due, when the generator actually released it, and when its
// response was complete.
type openLoopRequest struct {
	due, released, done time.Duration
}

// latency is the request's time from its due time to the full response,
// so a stall is charged to every request scheduled behind it.
func (r openLoopRequest) latency() time.Duration { return r.done - r.due }

// late is how far behind schedule the generator released the request.
func (r openLoopRequest) late() time.Duration { return r.released - r.due }

// interval is a closed time span on the run clock.
type interval struct{ start, end time.Duration }

func (a interval) overlaps(b interval) bool { return a.start < b.end && b.start < a.end }

// overlapsAny reports whether iv overlaps any of ivs, which are sorted by
// start and pairwise disjoint (one writer's successive calls).
func overlapsAny(iv interval, ivs []interval) bool {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].end > iv.start })
	return i < len(ivs) && ivs[i].overlaps(iv)
}
