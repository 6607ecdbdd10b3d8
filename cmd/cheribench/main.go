package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadList is the benchmark's workload set, in the order -workload all
// runs it.
var workloadList = []struct {
	name string
	run  func(*bench) error
}{
	{"grid-cold", runGridCold},
	{"paper-cold", runPaperCold},
	{"campaign-warm", runCampaignWarm},
	{"campaign-mixed", runCampaignMixed},
}

// bench is one workload run: its inputs and what it measured.
type bench struct {
	workload string
	root     string        // repository root (sources, testdata)
	work     string        // scratch directory for the daemon binary and its stores
	traceDir string        // Chrome trace and profile output of a traced run
	seed     uint64        // generates every input the program receives
	seconds  time.Duration // measurement budget
	traced   bool          // report per-layer metrics instead of end-to-end ones
	exe      string        // this binary, re-executed for each cold pass

	// gridPairs limits a grid-cold pass to the first pairs of its shuffled
	// grid and selection overrides the campaign workloads' set-up
	// selection; both exist for the package's smoke tests (0 and nil are
	// the benchmark's settings).
	gridPairs int
	selection []string

	spans     *telemetry.Collector // the bench's own spans (traced runs only)
	attempted int
	failures  []string
	metrics   map[string]float64
	notes     map[string]string // sample counts printed beside a metric
}

// check counts one operation and records it as failed unless ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// fail records an operation that failed with err.
func (b *bench) fail(err error) {
	b.check(false, "%v", err)
}

func (b *bench) set(name string, v float64, note string) {
	b.metrics[name] = v
	if note != "" {
		b.notes[name] = note
	}
}

// setPercentile sets a metric to the p-th percentile of samples and notes
// the sample count.
func (b *bench) setPercentile(name string, samples []float64, p float64) {
	b.set(name, percentile(samples, p), fmt.Sprintf("p%g of n=%d", p, len(samples)))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance stamps every result with what produced it.
type provenance struct {
	Commit     string `json:"commit"`
	Tree       string `json:"tree"` // clean, dirty, or unknown outside a git checkout
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Model      string `json:"model"`
}

func readProvenance(seed uint64) provenance {
	p := provenance{
		Commit: "unknown", Tree: "unknown",
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Model: resultstore.ModelFingerprint(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Tree = map[string]string{"true": "dirty", "false": "clean"}[s.Value]
			}
		}
	}
	return p
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cheribench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: grid-cold, paper-cold, campaign-warm, campaign-mixed, or all")
	seed := fs.Uint64("seed", 1, "seed that generates the workload's inputs")
	seconds := fs.Int("seconds", 15, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	traceDir := fs.String("trace-dir", "", "where a traced run writes Chrome traces and CPU profiles (default ROOT/.bench_build/trace)")
	jsonOut := fs.String("json", "", "also write the results with their provenance to this file")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "cheribench: -seconds must be >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	var runs []int
	for i, w := range workloadList {
		if *workload == "all" || *workload == w.name {
			runs = append(runs, i)
		}
	}
	if len(runs) == 0 {
		fmt.Fprintf(stderr, "cheribench: unknown workload %q\n", *workload)
		return 2
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "cheribench:", err)
		return 1
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(rootAbs, ".bench_build", "trace")
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "cheribench:", err)
		return 1
	}
	scratch := filepath.Join(rootAbs, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "cheribench:", err)
		return 1
	}
	prov := readProvenance(*seed)
	results := map[string]result{}
	for _, i := range runs {
		work, err := os.MkdirTemp(scratch, "work-")
		if err != nil {
			fmt.Fprintln(stderr, "cheribench:", err)
			return 1
		}
		b := &bench{
			workload: workloadList[i].name,
			root:     rootAbs,
			work:     work,
			traceDir: *traceDir,
			seed:     *seed,
			seconds:  time.Duration(*seconds) * time.Second,
			traced:   *trace == 1,
			exe:      exe,
		}
		res, err := runWorkload(b, workloadList[i].run)
		os.RemoveAll(work)
		if err != nil {
			fmt.Fprintf(stderr, "cheribench: %s: %v\n", b.workload, err)
			return 1
		}
		for _, f := range b.failures {
			fmt.Fprintf(stderr, "cheribench: %s: FAILED: %s\n", b.workload, f)
		}
		printResult(stdout, b, res, prov)
		results[b.workload] = res
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{"provenance": prov, "results": results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "cheribench:", err)
			return 1
		}
	}
	return 0
}

// runWorkload runs one workload and assembles its result: end-to-end
// metrics untraced, per-layer metrics traced.
func runWorkload(b *bench, run func(*bench) error) (result, error) {
	b.metrics = map[string]float64{}
	b.notes = map[string]string{}
	if b.traced {
		if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
			return result{}, err
		}
		b.spans = telemetry.NewCollector(1 << 18)
		for _, n := range layerNames() {
			b.metrics[n] = 0 // a layer the workload does not exercise reads 0
		}
	}
	if err := run(b); err != nil {
		return result{}, err
	}
	if b.traced {
		if err := writeSpans(filepath.Join(b.traceDir, b.workload+".trace.json"), b.spans); err != nil {
			return result{}, err
		}
	}
	res := result{
		Correct: len(b.failures) == 0, Attempted: b.attempted, Failed: len(b.failures),
		Metrics: map[string]resultValue{},
	}
	for _, m := range declared(b.traced) {
		v, ok := b.metrics[m.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = resultValue{Value: v, Unit: m.unit}
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}

// printResult writes one line per metric, the error rate, the provenance,
// and — last — the result JSON.
func printResult(w io.Writer, b *bench, res result, prov provenance) {
	line := func(n string, v float64, unit string) {
		s := fmt.Sprintf("%s %s %.6g %s", b.workload, n, v, unit)
		if note := b.notes[n]; note != "" {
			s += " (" + note + ")"
		}
		fmt.Fprintln(w, s)
	}
	for _, m := range declared(b.traced) {
		line(m.name, res.Metrics[m.name].Value, m.unit)
	}
	// Values measured on the way that BENCHMARK.json does not declare for
	// this kind of run (sim_muops_per_s; overhead_err in a traced run).
	for _, n := range sortedKeys(b.metrics) {
		if _, reported := res.Metrics[n]; !reported {
			line(n, b.metrics[n], "-")
		}
	}
	fmt.Fprintf(w, "%s error_rate %.6g ratio (%d of %d operations failed)\n",
		b.workload, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(w, "%s provenance %s\n", b.workload, pj)
	rj, _ := json.Marshal(res)
	fmt.Fprintln(w, string(rj))
}

// writeSpans exports the bench's spans as Chrome trace-event JSON.
func writeSpans(path string, c *telemetry.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTrace(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
