// Command profile runs a workload under an ABI and prints the per-function
// cycle profile — the simulator's analogue of pmcstat's sampling mode
// (§3.2; the paper's profiling work surfaced CheriBSD bug #2391 in that
// path), taken from an experiments session's profiled run. Comparing
// profiles across ABIs shows *where* CHERI's overhead lands: e.g. under
// purecap, QuickJS's opcode handlers and xalancbmk's virtual DOM
// accessors absorb disproportionally more cycles.
//
// Usage:
//
//	profile -workload quickjs -abi purecap -top 10
//	profile -workload 523.xalancbmk_r -compare
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/experiments"
	"cherisim/internal/pmu"
	"cherisim/internal/profile"
	"cherisim/internal/workloads"
)

func main() {
	wl := flag.String("workload", "", "workload name")
	abiName := flag.String("abi", "purecap", "ABI: hybrid | benchmark | purecap")
	scale := flag.Int("scale", 1, "workload scale factor")
	top := flag.Int("top", 15, "number of functions to report")
	period := flag.Uint64("period", 65536, "sampling period in cycles")
	compare := flag.Bool("compare", false, "print per-function share comparison across all three ABIs")
	flag.Parse()
	if *wl == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *period == 0 {
		fmt.Fprintln(os.Stderr, "profile: -period must be positive")
		os.Exit(2)
	}
	w, err := workloads.ByName(*wl)
	if err != nil {
		fatal(err)
	}

	if *compare {
		if err := compareProfiles(os.Stdout, w, *scale, *top, *period); err != nil {
			fatal(err)
		}
		return
	}

	a, err := abi.Parse(*abiName)
	if err != nil {
		fatal(err)
	}
	p, err := experiments.NewSession(*scale).ProfileRun(w, a)
	if p == nil {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "profile: workload faulted (partial profile follows): %v\n", err)
	}
	// Reconcile guarantees the profile's totals reconstruct CPU_CYCLES.
	cycles := profile.ReconstructCounters(p.Totals)[pmu.CPU_CYCLES]
	fmt.Printf("%s under %s — %d cycles\n\n", w.Name, a, cycles)
	fmt.Print(core.FormatProfile(p.Sampled(*period), *top))
}

// compareProfiles renders the per-function share comparison: one row per
// function with its cycle share under each ABI, sorted by purecap share
// descending (name tiebreak), truncated to top rows.
func compareProfiles(out io.Writer, w *workloads.Workload, scale, top int, period uint64) error {
	s := experiments.NewSession(scale)
	shares := map[string]*[3]float64{}
	for _, a := range abi.All() {
		p, err := s.ProfileRun(w, a)
		if err != nil {
			return err
		}
		for _, f := range p.Sampled(period) {
			e := shares[f.Name]
			if e == nil {
				e = &[3]float64{}
				shares[f.Name] = e
			}
			e[a] += f.Share
		}
	}
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		si, sj := shares[names[i]][abi.Purecap], shares[names[j]][abi.Purecap]
		if si != sj {
			return si > sj
		}
		return names[i] < names[j]
	})
	if top >= 0 && len(names) > top {
		names = names[:top]
	}

	tw := tabwriter.NewWriter(out, 1, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "function\thybrid%%\tbenchmark%%\tpurecap%%\tdelta\n")
	for _, n := range names {
		e := shares[n]
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%+.1f\n",
			n, e[abi.Hybrid]*100, e[abi.Benchmark]*100, e[abi.Purecap]*100,
			(e[abi.Purecap]-e[abi.Hybrid])*100)
	}
	return tw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profile:", err)
	os.Exit(1)
}
