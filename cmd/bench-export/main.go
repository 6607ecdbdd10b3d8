// Command bench-export runs the simulator's benchmark set with memory
// accounting and writes a machine-readable BENCH_<date>.json snapshot
// (ns/op, bytes/op, allocs/op per benchmark), so the performance
// trajectory of the hot paths is tracked across PRs.
//
// Usage:
//
//	bench-export                 # substrate micro-benchmarks -> BENCH_<date>.json
//	bench-export -full           # also regenerate every experiment artefact
//	bench-export -jobs 8         # worker-pool width for the campaign prefetch
//	bench-export -o bench.json   # explicit output path
//
// The experiment benchmarks share one measurement session, prefetched
// across the worker pool first, so -full pays the campaign cost once.
//
// Compare mode turns the snapshot into a regression gate (the CI bench
// job): re-measure the guarded hot-path benchmarks and fail when one
// regressed beyond the tolerance against a committed snapshot:
//
//	bench-export -compare BENCH_2026-08-08.json
//	bench-export -compare BENCH_2026-08-08.json -tolerance 0.35
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/branch"
	"cherisim/internal/cache"
	"cherisim/internal/cap"
	"cherisim/internal/core"
	"cherisim/internal/experiments"
	"cherisim/internal/tlb"
	"cherisim/internal/workloads"
)

// record is one benchmark's exported measurement.
type record struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// provenance stamps the snapshot with everything needed to reproduce or
// disqualify it later: the exact tree the numbers came from, the runtime
// that produced them, and confirmation that the measurement engine ran
// with telemetry disabled (the zero-overhead configuration the numbers
// are only valid under).
type provenance struct {
	GitCommit    string `json:"git_commit"`
	GitDirty     bool   `json:"git_dirty"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	TelemetryOff bool   `json:"telemetry_off"`
	// TelemetryOffAllocs is the measured allocations per cached session
	// run with telemetry disabled; TelemetryOff is only stamped true when
	// this is exactly zero.
	TelemetryOffAllocs float64 `json:"telemetry_off_allocs_per_run"`
}

// snapshot is the exported file format.
type snapshot struct {
	Date       string     `json:"date"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Provenance provenance `json:"provenance"`
	Benchmarks []record   `json:"benchmarks"`
}

// stampProvenance fills the provenance block. Git metadata degrades to
// empty fields outside a git checkout rather than failing the export.
func stampProvenance() provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		p.GitDirty = len(strings.TrimSpace(string(out))) > 0
	}
	// Confirm the zero-overhead contract on the exact session
	// configuration the benchmarks use: a warm singleflight cache with a
	// nil telemetry hub must serve runs without allocating.
	w, err := workloads.ByName("525.x264_r")
	if err != nil {
		fatal(err)
	}
	s := experiments.NewSession(1)
	s.Run(w, abi.Hybrid)
	p.TelemetryOffAllocs = testing.AllocsPerRun(200, func() { s.Run(w, abi.Hybrid) })
	p.TelemetryOff = p.TelemetryOffAllocs == 0
	return p
}

func main() {
	out := flag.String("o", "", "output path (default BENCH_<date>.json)")
	full := flag.Bool("full", false, "also benchmark every experiment regeneration")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool width for the campaign prefetch")
	comparePath := flag.String("compare", "",
		"committed BENCH_*.json to gate against: re-measure the guarded benchmarks and exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.5,
		"fractional ns/op regression allowed by -compare (0.5 = 50%; allocs/op must not grow at all)")
	flag.Parse()

	if *comparePath != "" {
		os.Exit(compareMain(*comparePath, *tolerance))
	}

	snap := snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Provenance: stampProvenance(),
	}
	if *out == "" {
		*out = "BENCH_" + snap.Date + ".json"
	}

	for _, b := range substrate() {
		snap.Benchmarks = append(snap.Benchmarks, measure(b.name, b.fn))
	}
	if *full {
		s := experiments.NewSession(1)
		s.Jobs = *jobs
		fmt.Fprintln(os.Stderr, "bench-export: prefetching measurement campaign...")
		s.Prefetch(experiments.UnionPairs(experiments.All()))
		for _, e := range experiments.All() {
			e := e
			snap.Benchmarks = append(snap.Benchmarks, measure("Experiment/"+e.ID, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := e.Run(s); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(snap.Benchmarks))
}

func measure(name string, fn func(*testing.B)) record {
	fmt.Fprintf(os.Stderr, "bench-export: %s...\n", name)
	r := testing.Benchmark(fn)
	return record{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

type bench struct {
	name string
	fn   func(*testing.B)
}

// substrate mirrors the micro-benchmarks of bench_test.go: the simulator
// components every workload run hammers.
func substrate() []bench {
	return []bench{
		{"CapSetBounds", func(b *testing.B) {
			b.ReportAllocs()
			root := cap.Root()
			for i := 0; i < b.N; i++ {
				c, err := root.SetBounds(uint64(i)<<12, 1<<20)
				if err != nil || !c.Valid() {
					b.Fatal("setbounds failed")
				}
			}
		}},
		{"CapEncodeDecode", func(b *testing.B) {
			b.ReportAllocs()
			c := cap.New(0x4000_0000, 1<<16, cap.PermsData)
			for i := 0; i < b.N; i++ {
				enc, tag := c.Encode()
				if d := cap.Decode(enc, tag); d.Base() != c.Base() {
					b.Fatal("round trip corrupted")
				}
			}
		}},
		{"CacheAccess", func(b *testing.B) {
			b.ReportAllocs()
			c := cache.New(cache.L1DConfig)
			for i := 0; i < b.N; i++ {
				c.Access(uint64(i*64)%(1<<21), i%4 == 0)
			}
		}},
		{"CacheAccessHot", func(b *testing.B) {
			b.ReportAllocs()
			c := cache.New(cache.L1DConfig)
			for i := 0; i < b.N; i++ {
				c.Access(uint64(i%4)*8, false)
			}
		}},
		{"TLBTranslate", func(b *testing.B) {
			b.ReportAllocs()
			h := tlb.NewHierarchy(tlb.L1DConfig, tlb.New(tlb.L2Config))
			for i := 0; i < b.N; i++ {
				h.Translate(uint64(i) << 12 % (1 << 30))
			}
		}},
		{"TLBTranslateHot", func(b *testing.B) {
			b.ReportAllocs()
			h := tlb.NewHierarchy(tlb.L1DConfig, tlb.New(tlb.L2Config))
			for i := 0; i < b.N; i++ {
				h.Translate(0x4000_0000 + uint64(i%64)*8)
			}
		}},
		{"Predictor", func(b *testing.B) {
			b.ReportAllocs()
			p := branch.New()
			for i := 0; i < b.N; i++ {
				p.Resolve(uint64(i%64)<<2, branch.Immed, i%3 == 0, 0, false)
			}
		}},
		{"Allocator", func(b *testing.B) {
			b.ReportAllocs()
			h := alloc.New(abi.Purecap, 0x4000_0000, 1<<32)
			for i := 0; i < b.N; i++ {
				a, err := h.Alloc(uint64(64 + i%256))
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Free(a); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SessionTelemetryOff", func(b *testing.B) {
			// Mirror of experiments.BenchmarkSessionTelemetryOff: the
			// cached-run hot path the campaign engine hammers, with
			// the telemetry layer disabled.
			b.ReportAllocs()
			w, err := workloads.ByName("525.x264_r")
			if err != nil {
				b.Fatal(err)
			}
			s := experiments.NewSession(1)
			s.Run(w, abi.Hybrid)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(w, abi.Hybrid)
			}
		}},
		{"MachineLoadStore", func(b *testing.B) {
			b.ReportAllocs()
			m := core.New(abi.Purecap)
			m.Func("bench", 512, 64)
			err := m.Run(func(m *core.Machine) {
				p := m.Alloc(1 << 20)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := core.Ptr(uint64(i*64) % (1 << 20))
					m.Store(p+off, uint64(i), 8)
					m.Load(p+off, 8)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}},
	}
}

// guarded names the benchmarks the -compare gate enforces: the
// simulator's end-to-end hot paths (live interpretation and the cached
// session run). The component micro-benchmarks are exported for trend
// tracking but not gated — they are too small to measure stably on shared
// CI runners.
var guarded = []string{"MachineLoadStore", "SessionTelemetryOff"}

// compareMain re-measures the guarded benchmarks and gates them against
// the committed snapshot at path: ns/op may not regress beyond tol
// (fractional), and allocs/op may not grow at all. Returns the process
// exit code.
func compareMain(path string, tol float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-export:", err)
		return 1
	}
	var base snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench-export: %s: %v\n", path, err)
		return 1
	}
	baseline := make(map[string]record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}

	all := substrate()
	code := 0
	for _, name := range guarded {
		want, ok := baseline[name]
		if !ok {
			fmt.Printf("%-22s not in %s; skipped\n", name, path)
			continue
		}
		var fn func(*testing.B)
		for _, b := range all {
			if b.name == name {
				fn = b.fn
			}
		}
		if fn == nil {
			fmt.Fprintf(os.Stderr, "bench-export: guarded benchmark %s not implemented\n", name)
			return 1
		}
		got := measure(name, fn)
		ratio := got.NsPerOp / want.NsPerOp
		verdict := "ok"
		if got.NsPerOp > want.NsPerOp*(1+tol) {
			verdict = fmt.Sprintf("REGRESSION (> %+.0f%% allowed)", tol*100)
			code = 1
		}
		if got.AllocsPerOp > want.AllocsPerOp {
			verdict = fmt.Sprintf("ALLOC REGRESSION (%d -> %d allocs/op)", want.AllocsPerOp, got.AllocsPerOp)
			code = 1
		}
		fmt.Printf("%-22s %10.1f ns/op vs %10.1f baseline  (%+5.1f%%)  %s\n",
			name, got.NsPerOp, want.NsPerOp, (ratio-1)*100, verdict)
	}
	return code
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-export:", err)
	os.Exit(1)
}
