// Command topdown runs one workload under every ABI through an experiments
// session and prints the hierarchical top-down comparison — the §4.4
// drill-down for arbitrary workloads.
//
// Usage:
//
//	topdown -workload 520.omnetpp_r
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/experiments"
	"cherisim/internal/workloads"
)

func main() {
	wl := flag.String("workload", "", "workload name")
	scale := flag.Int("scale", 1, "workload scale factor")
	flag.Parse()
	if *wl == "" {
		flag.Usage()
		os.Exit(2)
	}
	w, err := workloads.ByName(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topdown:", err)
		os.Exit(1)
	}

	s := experiments.NewSession(*scale)
	var pairs []experiments.Pair
	for _, a := range abi.All() {
		pairs = append(pairs, experiments.Pair{Workload: w, ABI: a})
	}
	s.Prefetch(pairs)

	tw := tabwriter.NewWriter(os.Stdout, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "abi\ttime(s)\tIPC\tretiring\tbadspec\tfrontend\tbackend\tmemory\tL1\tL2\textmem\tcore\tdominant")
	for _, a := range abi.All() {
		d := s.Run(w, a)
		if d.Err != nil {
			fmt.Fprintf(os.Stderr, "topdown: %s faulted: %v\n", a, d.Err)
		}
		mm, td := &d.Metrics, &d.Topdown
		fmt.Fprintf(tw, "%s\t%.4f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
			a, mm.Seconds, mm.IPC, td.Retiring, td.BadSpec, td.FrontendBound, td.BackendBound,
			td.MemoryBound, td.L1Bound, td.L2Bound, td.ExtMemBound, td.CoreBound,
			td.DominantBottleneck())
	}
	tw.Flush()
}
