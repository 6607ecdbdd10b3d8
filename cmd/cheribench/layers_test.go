package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestParseTracesBuckets(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	split, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cache":       0.03,
		"core":        0.04, // fetch + bounds + the rest of core
		"core.fetch":  0.02,
		"core.bounds": 0.01,
		"alloc":       0.04, // map leaf under Owner: alloc, not core.bounds
		"tlb":         0.02,
		"mem":         0.01,
		"http":        0.01,
		"runtime.gc":  0.02,
		"other":       0.02, // telemetry, and a main-package-only stack
		"replay":      1.20, // label lines are skipped, "1.20s" parsed
	}
	for b, v := range want {
		if math.Abs(split.buckets[b]-v) > 1e-9 {
			t.Errorf("bucket %s = %v s, want %v", b, split.buckets[b], v)
		}
	}
	if math.Abs(split.total-1.39) > 1e-9 {
		t.Errorf("total = %v s, want 1.39", split.total)
	}
	if math.Abs(split.maps-0.07) > 1e-9 {
		t.Errorf("map time = %v s, want 0.07 (mapaccess, maps.*, and a hash called from map code)", split.maps)
	}

	layers := map[string]float64{}
	setCPU(layers, split)
	var sum float64
	for _, b := range cpuBuckets {
		sum += layers[cpuMetric(b)]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("bucket shares sum to %v%%, want 100", sum)
	}
	if got := layers["runtime.cpu_s"]; math.Abs(got-1.39) > 1e-9 {
		t.Errorf("runtime.cpu_s = %v, want 1.39", got)
	}
}

func TestLayerUnits(t *testing.T) {
	for name, want := range map[string]string{
		"core.cpu_pct":              "%",
		"core.ns_per_uop":           "ns",
		"core.uops":                 "count",
		"experiments.prefetch_s":    "s",
		"exp.ablation-caches_s":     "s",
		"campaign.queue_ms_p99":     "ms",
		"runtime.heap_peak_mb":      "MiB",
		"resultstore.mem_hit_ratio": "ratio",
	} {
		if got := layerUnit(name); got != want {
			t.Errorf("layerUnit(%s) = %s, want %s", name, got, want)
		}
	}
}

// TestBenchmarkJSON pins the repository's BENCHMARK.json to what the bench
// reports: its workloads, its end-to-end metrics and units, and its
// per-layer metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range spec.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, w := range workloadList {
		wantW = append(wantW, w.name)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", gotW, wantW)
	}
	for i, section := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var got []metricDef
		for _, m := range section {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if want := declared(i == 1); !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json declares %v\nthe bench reports %v", got, want)
		}
	}
}
