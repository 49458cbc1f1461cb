package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// workloadMetrics are the metrics each workload must print, beyond the
// ones BENCHMARK.json names for every workload.
var workloadMetrics = map[string][]string{
	"explore": {"query_p50_ms", "query_p90_ms", "exact_p50_ms", "first_update_p50_ms", "analyze_p50_ms", "error_rate"},
	"ingest": {"query_p50_ms", "query_p90_ms", "ingest_p50_ms", "ingest_p90_ms", "restart_s", "error_rate",
		"onex.add_series_self_ms_p50", "onex.read_overlap_share", "onex.read_overlap_p50_ms",
		"grouping.add_series_ms_p50", "grouping.add_series_ms_p90",
		"store.append_ms_p50", "store.compactions", "store.compact_ms_p50", "store.bytes_written_per_user_byte",
		"store.snapshot_bytes_per_value_byte", "store.load_s", "store.wal_records_replayed"},
	"serve": {"http_p50_ms", "http_p99_ms", "http_goodput_rps", "error_rate",
		"servecache.hit_ratio", "servecache.evictions", "servecache.stats_mismatches",
		"server.miss_self_ms_p50", "server.hit_ms_p50", "server.rejected", "server.response_bytes_p50",
		"loadgen.late_ms_p99"},
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONNames(t *testing.T) {
	spec := readSpec(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, code %q", kind, i, got[i].Name, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestTinyWorkloads runs every workload on test-sized inputs, traced, and
// checks that every metric is emitted with its unit and every answer
// passed its check.
func TestTinyWorkloads(t *testing.T) {
	spec := readSpec(t)
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{seed: 7, measure: 400 * time.Millisecond, trace: true, tiny: true, outDir: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range append(append(append([]string{}, endToEnd...), perLayer...), workloadMetrics[name]...) {
				m, ok := rep.metrics[n]
				if !ok {
					t.Errorf("metric %s missing", n)
					continue
				}
				if m.Unit == "" || (units[n] != "" && m.Unit != units[n]) {
					t.Errorf("metric %s has unit %q, want %q", n, m.Unit, units[n])
				}
			}
			if rep.failed() != 0 || rep.attempted == 0 {
				t.Errorf("attempted %d, failed %d: %s", rep.attempted, rep.failed(), strings.Join(rep.notes, "\n"))
			}
			for _, traced := range []bool{false, true} {
				line, err := resultLine(rep, traced)
				if err != nil {
					t.Fatalf("resultLine(trace=%v): %v", traced, err)
				}
				var out struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metricValue
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil || !out.Correct {
					t.Errorf("result line %s: %v", line, err)
				}
			}
		})
	}
}
