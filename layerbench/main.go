// Command layerbench is the repository's benchmark: it drives three seeded
// workloads (explore, ingest, serve) through the public entry points of
// every layer, checks every answer, and prints each metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run adds a traced phase that replays each request one layer down and
// the metrics are the per-layer ones. See README.md for every metric.
//
// Run it through run.sh, which builds it from the checkout first:
//
//	bash layerbench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// endToEnd and perLayer are the metrics BENCHMARK.json names, in its order;
// TestBenchmarkJSONNames keeps the two in step.
var (
	endToEnd = []string{"setup_s", "heap_mb", "cpu_ms_per_op"}
	perLayer = []string{
		"dist.dtw_ns_per_cell", "dist.dtw_allocs_per_call", "dist.lb_keogh_ns_per_point",
		"core.find_ms_p50", "core.approx_phase_ms_p50", "core.waves_per_query",
		"core.groups_per_query", "core.rep_dtws_per_query", "core.groups_pruned_per_query",
		"core.groups_refined_per_query", "core.member_dtws_per_query", "core.rep_dtw_useful_ratio",
		"core.recommend_s", "core.rebind_ms_p50",
		"onex.find_self_ms_p50",
		"grouping.build_s", "grouping.groups", "grouping.windows_per_group",
		"proc.alloc_bytes_per_op", "trace.overhead_ratio", "trace.replay_mismatches",
	}
)

var workloads = map[string]func(cfg runConfig) (*report, error){
	"explore": runExplore,
	"ingest":  runIngest,
	"serve":   runServe,
}

// dataSeed fixes each workload's indexed dataset. --seed draws everything a
// session sends to it — queries, held-out walks, ingested series, request
// streams — so runs with different seeds measure the same index under
// different sessions. A dataset drawn per seed moves the threshold, the
// group count, set-up time and latencies by tens of percent between seeds.
const dataSeed = 1

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	measure time.Duration // length of each timed phase
	trace   bool
	tiny    bool   // test-sized inputs
	outDir  string // where spans are written
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's numbers, counts and descriptive notes.
type report struct {
	workload  string
	attempted int
	errors    int // calls that returned an error or were refused
	wrong     int // answers a check found wrong
	metrics   map[string]metricValue
	order     []string
	notes     []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metricValue{}}
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrongf records a wrong answer with its description.
func (r *report) wrongf(format string, args ...any) {
	r.wrong++
	r.note("WRONG: "+format, args...)
}

// errorf records a failed or refused call.
func (r *report) errorf(format string, args ...any) {
	r.errors++
	if r.errors <= 5 {
		r.note("ERROR: "+format, args...)
	}
}

func (r *report) failed() int { return r.errors + r.wrong }

func main() {
	var (
		workload = flag.String("workload", "", "explore, ingest or serve")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 25, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
		outDir   = flag.String("out", filepath.Join(".bench_build", "layerbench"), "directory for span files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "layerbench: need --workload explore|ingest|serve, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, outDir: *outDir}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printRun(os.Stdout, cfg, rep)
	line, err := resultLine(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// printRun writes the human-readable record: host, inputs, every metric
// with its unit, and the notes.
func printRun(w *os.File, cfg runConfig, r *report) {
	fmt.Fprintf(w, "# workload %s seed %d seconds %.3g trace %v\n", r.workload, cfg.seed, cfg.measure.Seconds(), cfg.trace)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit())
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# attempted %d errors %d wrong %d error_rate %.6g\n",
		r.attempted, r.errors, r.wrong, float64(r.failed())/float64(max(r.attempted, 1)))
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// resultLine renders the final JSON object with exactly the metrics
// BENCHMARK.json names for this mode.
func resultLine(r *report, traced bool) (string, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := map[string]metricValue{}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", n, m.Value)
		}
		out[n] = m
	}
	data, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.wrong == 0, max(r.attempted, 1), r.failed(), out})
	return string(data), err
}

// cpuModel reads the CPU model name, or "unknown" where /proc is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
