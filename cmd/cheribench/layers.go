package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// metricDef is a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, with their units.
// BENCHMARK.json declares the same names and units (TestBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"overhead_err", "ratio"},
}

// expIDs are the experiments of the -all campaign whose per-experiment time
// the traced run reports as exp.<id>_s. The list is fixed so every traced
// run reports the same names; an experiment added later still counts in
// experiments.render_s.
var expIDs = []string{
	"table1", "table2", "fig1", "fig2", "table3", "table4", "fig4", "fig5",
	"fig6", "fig7", "claims", "ablation-predictor", "ablation-storequeue",
	"ablation-caches", "ext-compartment", "ext-multicore", "ext-revocation",
	"ext-sweep", "resilience", "hotspots",
}

// cpuBuckets are the CPU-profile buckets, one per layer; their *.cpu_pct
// metrics sum to 100. core.fetch and core.bounds are parts of core and are
// reported inside core.cpu_pct as well as on their own.
var cpuBuckets = []string{
	"core", "cache", "tlb", "branch", "mem", "alloc", "cap", "workloads",
	"replay", "soc", "profile", "experiments", "resultstore", "campaign",
	"http", "other", "runtime.gc",
}

// layerNames lists every metric a traced run reports, in print order.
func layerNames() []string {
	names := []string{
		"core.cpu_pct", "core.fetch_cpu_pct", "core.bounds_cpu_pct", "core.uops", "core.ns_per_uop",
		"cache.cpu_pct", "cache.accesses", "cache.ns_per_access",
		"tlb.cpu_pct", "tlb.lookups", "tlb.walks", "tlb.ns_per_lookup",
		"branch.cpu_pct", "branch.resolved", "branch.ns_per_branch",
		"mem.cpu_pct", "mem.cap_accesses",
		"alloc.cpu_pct", "cap.cpu_pct", "workloads.cpu_pct",
		"replay.cpu_pct", "soc.cpu_pct", "profile.cpu_pct",
		"experiments.cpu_pct", "experiments.prefetch_s", "experiments.render_s",
		"experiments.run_ms_p50", "experiments.run_ms_max", "experiments.sims",
	}
	for _, id := range expIDs {
		names = append(names, "exp."+id+"_s")
	}
	return append(names,
		"resultstore.cpu_pct", "resultstore.disk_hits", "resultstore.mem_hit_ratio",
		"resultstore.writes", "resultstore.write_errors",
		"campaign.cpu_pct", "campaign.queue_ms_p50", "campaign.queue_ms_p99",
		"campaign.run_ms_p50", "campaign.rejected",
		"http.cpu_pct", "http.submit_ms_p50", "http.result_ms_p50",
		"other.cpu_pct",
		"runtime.gc_cpu_pct", "runtime.map_cpu_pct", "runtime.heap_peak_mb", "runtime.cpu_s",
		"trace.overhead_pct",
	)
}

// declared lists the metrics a run reports: the end-to-end set, or the
// per-layer set for a traced run.
func declared(traced bool) []metricDef {
	if !traced {
		return endToEnd
	}
	var out []metricDef
	for _, n := range layerNames() {
		out = append(out, metricDef{n, layerUnit(n)})
	}
	return out
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.Contains(name, ".ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

// cpuSplit is a CPU profile charged to buckets: seconds per bucket (plus
// the core.fetch and core.bounds parts of core) and the seconds whose leaf
// frame is Go map code.
type cpuSplit struct {
	total   float64
	buckets map[string]float64
	maps    float64
}

func (c cpuSplit) pct(bucket string) float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * c.buckets[bucket] / c.total
}

// splitProfiles decodes CPU profiles with `go tool pprof -traces` (several
// files merge into one report) and charges every sample.
func splitProfiles(files []string) (cpuSplit, error) {
	if len(files) == 0 {
		return cpuSplit{buckets: map[string]float64{}}, nil
	}
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...).Output()
	if err != nil {
		return cpuSplit{}, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces reads `pprof -traces` output: samples separated by dashed
// lines, each an optional run of "key:  value" label lines, then the stack
// leaf first with the sample's value in the first ten columns.
func parseTraces(r io.Reader) (cpuSplit, error) {
	split := cpuSplit{buckets: map[string]float64{}}
	var value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			bucket, isMap := classify(frames)
			split.total += value
			split.buckets[bucket] += value
			if strings.HasPrefix(bucket, "core.") {
				split.buckets["core"] += value
			}
			if isMap {
				split.maps += value
			}
		}
		frames, value = frames[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || len(line) < 14 || line[10] == ':' {
			continue // header, blank or label line
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return cpuSplit{}, fmt.Errorf("pprof traces: sample value %q: %w", v, err)
			}
			value = d.Seconds()
		}
		frames = append(frames, strings.TrimSuffix(strings.TrimSpace(line[13:]), " (inline)"))
	}
	flush()
	return split, sc.Err()
}

// classify charges one stack (leaf first) to a bucket: the innermost
// cherisim/internal/<pkg> frame names it, with core split into fetch,
// bounds and the rest by function name; stacks with no such frame go to
// http when they run net/http code, to other when they run a program's own
// main package, and to runtime.gc otherwise. isMap reports a leaf in Go map
// code (or a hash function called from it).
func classify(frames []string) (bucket string, isMap bool) {
	isMap = isMapFrame(frames[0]) ||
		(strings.HasPrefix(frames[0], "runtime.") && strings.Contains(frames[0], "hash") &&
			len(frames) > 1 && isMapFrame(frames[1]))
	const internal = "cherisim/internal/"
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, internal)
		if !ok {
			continue
		}
		pkg, fn, _ := strings.Cut(rest, ".")
		switch pkg {
		case "core":
			switch {
			case strings.Contains(fn, "fetch"):
				return "core.fetch", isMap
			case strings.Contains(fn, "checkBounds"), strings.Contains(fn, "checkProvenance"):
				return "core.bounds", isMap
			}
			return "core", isMap
		case "cache", "tlb", "branch", "mem", "alloc", "cap", "workloads", "replay",
			"soc", "profile", "experiments", "resultstore", "campaign":
			return pkg, isMap
		}
		return "other", isMap
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") {
			return "http", isMap
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "other", isMap
		}
	}
	return "runtime.gc", isMap
}

func isMapFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.map") || strings.HasPrefix(f, "internal/runtime/maps.")
}

// setCPU fills the *.cpu_pct, runtime.map_cpu_pct and runtime.cpu_s layer
// metrics from a profile split.
func setCPU(layers map[string]float64, c cpuSplit) {
	for _, b := range cpuBuckets {
		layers[cpuMetric(b)] = c.pct(b)
	}
	layers["core.fetch_cpu_pct"] = c.pct("core.fetch")
	layers["core.bounds_cpu_pct"] = c.pct("core.bounds")
	if c.total > 0 {
		layers["runtime.map_cpu_pct"] = 100 * c.maps / c.total
	}
	layers["runtime.cpu_s"] = c.total
}

// cpuMetric names a bucket's share metric.
func cpuMetric(bucket string) string {
	if bucket == "runtime.gc" {
		return "runtime.gc_cpu_pct"
	}
	return bucket + ".cpu_pct"
}

// perUnitNs is a bucket's CPU time per unit of work in ns (0 without work).
func perUnitNs(c cpuSplit, bucket string, count float64) float64 {
	if count == 0 {
		return 0
	}
	return c.buckets[bucket] * 1e9 / count
}
