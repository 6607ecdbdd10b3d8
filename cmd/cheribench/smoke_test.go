package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: a cold pass
// re-executes it with the child spec in the environment.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

func smokeBench(t *testing.T, workload string, traced bool) *bench {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return &bench{
		workload: workload,
		root:     root,
		work:     t.TempDir(),
		traceDir: t.TempDir(),
		seed:     1,
		seconds:  time.Second,
		traced:   traced,
		exe:      exe,
	}
}

func checkResult(t *testing.T, b *bench, res result, positive ...string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v; failures: %v", res, b.failures)
	}
	for _, n := range positive {
		if v, ok := res.Metrics[n]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %+v, want > 0", n, v)
		}
	}
}

func TestSmokeGridCold(t *testing.T) {
	b := smokeBench(t, "grid-cold", false)
	b.gridPairs = 2
	b.seconds = time.Nanosecond // one pass
	res, err := runWorkload(b, runGridCold)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, b, res, "setup_s", "cold_s", "p50_ms", "tail_ms", "per_s", "peak_rss_mb")
	if got := len(res.Metrics); got != len(endToEnd) {
		t.Errorf("reported %d metrics, want the %d end-to-end ones", got, len(endToEnd))
	}
}

func TestSmokeGridColdTraced(t *testing.T) {
	b := smokeBench(t, "grid-cold", true)
	b.gridPairs = 2
	res, err := runWorkload(b, runGridCold)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, b, res, "core.uops", "cache.accesses", "experiments.sims", "runtime.heap_peak_mb")
	if got := len(res.Metrics); got != len(layerNames()) {
		t.Errorf("reported %d metrics, want the %d per-layer ones", got, len(layerNames()))
	}
	for _, f := range []string{"grid-cold.trace.json", "grid-cold-child.trace.json", "grid-cold.pprof"} {
		if _, err := os.Stat(filepath.Join(b.traceDir, f)); err != nil {
			t.Error(err)
		}
	}
}

func TestSmokeCampaignWarm(t *testing.T) {
	b := smokeBench(t, "campaign-warm", false)
	b.selection = []string{"table1"}
	res, err := runWorkload(b, runCampaignWarm)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, b, res, "setup_s", "cold_s", "p50_ms", "tail_ms", "per_s", "peak_rss_mb")
}
