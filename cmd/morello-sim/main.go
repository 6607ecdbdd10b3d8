// Command morello-sim runs one workload on the simulated Morello platform
// under a chosen CHERI ABI and reports execution statistics, derived
// metrics and the top-down breakdown — the simulator's equivalent of
// timing a benchmark on the board. It measures through an experiments
// session, the same path the paper's tables take.
//
// Usage:
//
//	morello-sim -workload sqlite -abi purecap
//	morello-sim -workload 520.omnetpp_r -abi hybrid -scale 2 -events
//	morello-sim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/experiments"
	"cherisim/internal/metrics"
	"cherisim/internal/pmu"
	"cherisim/internal/workloads"
)

func main() {
	wl := flag.String("workload", "", "workload name (see -list)")
	abiName := flag.String("abi", "purecap", "ABI: hybrid | benchmark | purecap")
	scale := flag.Int("scale", 1, "workload scale factor")
	list := flag.Bool("list", false, "list workloads")
	events := flag.Bool("events", false, "dump every raw PMU event")
	trackPCC := flag.Bool("track-pcc", false, "model a capability-aware branch predictor")
	flag.Parse()

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 1, 4, 2, ' ', 0)
		for _, w := range workloads.All() {
			fmt.Fprintf(tw, "%s\t%s\n", w.Name, w.Desc)
		}
		tw.Flush()
		return
	}
	if *wl == "" {
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

	s := experiments.NewSession(*scale)
	if *trackPCC {
		s.Configure = func(cfg *core.Config) { cfg.TracksPCCBounds = true }
	}
	d := s.Run(w, a)
	if d.Err != nil {
		fmt.Fprintf(os.Stderr, "morello-sim: workload faulted: %v\n", d.Err)
		// Counters up to the fault are still reported, as a crashed run's
		// partial pmcstat output would be.
	}

	mm := d.Metrics
	fmt.Printf("workload  %s (%s)\nabi       %s\n", w.Name, w.Desc, a)
	fmt.Printf("time      %.6f s (%d cycles @2.5GHz)\n", mm.Seconds, mm.Cycles)
	fmt.Printf("insts     %d (IPC %.3f)\n", mm.Insts, mm.IPC)
	fmt.Printf("branchMR  %.2f%%   L1I MR %.2f%%   L1D MR %.2f%%   L2 MR %.2f%%   LLCrd MR %.2f%%\n",
		mm.BranchMR*100, mm.L1IMR*100, mm.L1DMR*100, mm.L2MR*100, mm.LLCReadMR*100)
	fmt.Printf("capLD     %.2f%%   capSD %.2f%%   capTraffic %.2f%%   capTag %.2f%%\n",
		mm.CapLoadDensity*100, mm.CapStoreDensity*100, mm.CapTrafficShare*100, mm.CapTagOverhead*100)
	fmt.Printf("MI        %.3f (%s)\n", mm.MemoryIntensity, metrics.ClassifyMI(mm.MemoryIntensity))
	hs := d.Heap
	fmt.Printf("heap      %d allocs, %d frees, peak %d B, footprint %d B (rounding overhead %.3fx)\n",
		hs.Allocs, hs.Frees, hs.PeakLiveBytes, hs.BrkBytes, hs.OverheadRatio())
	fmt.Printf("\nTop-down:\n%s", d.Topdown)

	if *events {
		fmt.Println("\nRaw PMU events:")
		tw := tabwriter.NewWriter(os.Stdout, 1, 4, 2, ' ', 0)
		for _, e := range pmu.AllEvents() {
			fmt.Fprintf(tw, "%s\t%d\n", e, d.Counters.Get(e))
		}
		tw.Flush()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "morello-sim:", err)
	os.Exit(1)
}
