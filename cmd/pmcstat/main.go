// Command pmcstat mirrors the CheriBSD pmcstat workflow the paper uses
// (§3.2): the PMU exposes six programmable counters plus the fixed cycle
// counter, so collecting a larger event set requires re-running the
// (deterministic) benchmark once per counter group. The tool builds the
// multiplexing plan and merges each group's captured counters into one
// report — seven runs for the full event set. The simulated benchmark is
// deterministic, so every group captures from one session run.
//
// Usage:
//
//	pmcstat -workload sqlite -abi purecap \
//	    -events INST_RETIRED,LD_SPEC,ST_SPEC,CAP_MEM_ACCESS_RD
//	pmcstat -workload quickjs -abi purecap -full
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
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
	eventsArg := flag.String("events", "", "comma-separated PMU event names")
	full := flag.Bool("full", false, "collect the full event set")
	showPlan := flag.Bool("plan", false, "print the multiplexing plan only")
	sample := flag.Bool("S", false, "sampling mode: per-function cycle samples (pmcstat -S)")
	period := flag.Uint64("period", 65536, "sampling period in cycles (with -S)")
	flag.Parse()

	if *wl == "" || (*eventsArg == "" && !*full && !*sample) {
		flag.Usage()
		os.Exit(2)
	}
	if *sample && *period == 0 {
		fmt.Fprintln(os.Stderr, "pmcstat: -period must be positive")
		os.Exit(2)
	}
	w, err := workloads.ByName(*wl)
	if err != nil {
		fatal(err)
	}
	a, err := abi.Parse(*abiName)
	if err != nil {
		fatal(err)
	}
	s := experiments.NewSession(*scale)
	if *sample {
		runSampling(s, w, a, *period)
		return
	}

	var events []pmu.Event
	if *full {
		events = pmu.AllEvents()
	} else {
		for _, name := range strings.Split(*eventsArg, ",") {
			e, err := pmu.ParseEvent(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			events = append(events, e)
		}
	}

	plan := pmu.BuildPlan(events)
	fmt.Printf("# %d events, %d programmable slots -> %d runs\n", len(plan.Events()), pmu.Slots, plan.Runs())
	if *showPlan {
		for i, group := range plan {
			names := make([]string, len(group))
			for j, e := range group {
				names[j] = e.String()
			}
			fmt.Printf("run %d: %s\n", i+1, strings.Join(names, ", "))
		}
		return
	}

	// One capture per counter group; the workload is deterministic, so
	// every group captures from the session's one run.
	merged := map[pmu.Event]uint64{}
	var cycles uint64
	for i, group := range plan {
		file, err := pmu.NewCounterFile(group...)
		if err != nil {
			fatal(err)
		}
		d := s.Run(w, a)
		if d.Err != nil {
			fmt.Fprintf(os.Stderr, "pmcstat: run %d faulted: %v\n", i+1, d.Err)
		}
		file.Capture(&d.Counters)
		for _, e := range group {
			v, err := file.Read(e)
			if err != nil {
				fatal(err)
			}
			merged[e] = v
		}
		cyc, _ := file.Read(pmu.CPU_CYCLES)
		cycles = cyc
	}

	tw := tabwriter.NewWriter(os.Stdout, 1, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "CPU_CYCLES\t%d\n", cycles)
	for _, e := range plan.Events() {
		fmt.Fprintf(tw, "%s\t%d\n", e, merged[e])
	}
	tw.Flush()
}

// runSampling is the pmcstat -S analogue: attribute cycle samples to
// functions (the workflow whose CheriBSD implementation the paper's
// profiling surfaced a bug in, CTSRD-CHERI/cheribsd#2391). Sampling is its
// own collection: the session's profiled run, never the counting run.
func runSampling(s *experiments.Session, w *workloads.Workload, a abi.ABI, period uint64) {
	p, err := s.ProfileRun(w, a)
	if p == nil {
		fatal(err)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmcstat: workload faulted (partial samples follow): %v\n", err)
	}
	// Reconcile guarantees the profile's totals reconstruct CPU_CYCLES.
	cycles := profile.ReconstructCounters(p.Totals)[pmu.CPU_CYCLES]
	fmt.Printf("# sampling %s/%s, period %d cycles, %d total cycles\n", w.Name, a, period, cycles)
	fmt.Print(core.FormatProfile(p.Sampled(period), 20))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmcstat:", err)
	os.Exit(1)
}
