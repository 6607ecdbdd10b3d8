// Command pmcstat mirrors the CheriBSD pmcstat workflow the paper uses
// (§3.2): the PMU exposes six programmable counters plus the fixed cycle
// counter, so collecting a larger event set requires re-running the
// (deterministic) benchmark once per counter group. The tool builds the
// multiplexing plan, performs the runs, and merges the captured counters
// into one report — nine runs for the paper's full event set.
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
	"cherisim/internal/pmu"
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

	if *wl != "" && *sample {
		runSampling(*wl, *abiName, *scale, *period)
		return
	}
	if *wl == "" || (*eventsArg == "" && !*full) {
		flag.Usage()
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

	// One benchmark execution per counter group; the workload is
	// deterministic, so per-run captures compose into one sample set.
	merged := map[pmu.Event]uint64{}
	var cycles uint64
	for i, group := range plan {
		file, err := pmu.NewCounterFile(group...)
		if err != nil {
			fatal(err)
		}
		m, err := workloads.Execute(w, a, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmcstat: run %d faulted: %v\n", i+1, err)
		}
		file.Capture(&m.C)
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
// own collection: only this run turns attribution on, never the counting
// runs.
func runSampling(wl, abiName string, scale int, period uint64) {
	w, err := workloads.ByName(wl)
	if err != nil {
		fatal(err)
	}
	a, err := abi.Parse(abiName)
	if err != nil {
		fatal(err)
	}
	m, err := workloads.ExecuteHooked(w, core.DefaultConfig(a), scale, (*core.Machine).EnableProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmcstat: workload faulted (partial samples follow): %v\n", err)
	}
	fmt.Printf("# sampling %s/%s, period %d cycles, %d total cycles\n", w.Name, a, period, m.Cycles())
	fmt.Print(core.FormatProfile(m.Profile(period), 20))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmcstat:", err)
	os.Exit(1)
}
