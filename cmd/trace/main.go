// Command trace records a workload's memory-access stream on the
// simulated Morello platform and prints its locality analysis — reuse
// distances, stride mix, footprint and pointer-chase share — optionally
// comparing ABIs to show how 128-bit capabilities dilute spatial locality
// (the §4.7 mechanism, observed directly).
//
// Usage:
//
//	trace -workload 520.omnetpp_r -abi purecap
//	trace -workload llama-matmul -compare
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/trace"
	"cherisim/internal/workloads"
)

func main() {
	wl := flag.String("workload", "", "workload name")
	abiName := flag.String("abi", "purecap", "ABI: hybrid | benchmark | purecap")
	scale := flag.Int("scale", 1, "workload scale factor")
	max := flag.Int("max", 500000, "maximum retained accesses (head sampling)")
	compare := flag.Bool("compare", false, "compare hybrid vs purecap locality")
	flag.Parse()
	if *wl == "" {
		flag.Usage()
		os.Exit(2)
	}
	w, err := workloads.ByName(*wl)
	if err != nil {
		fatal(err)
	}

	// A trace is its own collection, which the result store cannot hold,
	// so this tool runs the execution primitive directly rather than an
	// experiments session.
	run := func(a abi.ABI) trace.Analysis {
		m, err := workloads.ExecuteHooked(w, core.DefaultConfig(a), *scale, func(m *core.Machine) {
			m.Tracer = trace.New(*max)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: workload faulted (partial trace follows): %v\n", err)
		}
		return trace.Analyze(m.Tracer.Events())
	}

	if *compare {
		hy, pc := run(abi.Hybrid), run(abi.Purecap)
		tw := tabwriter.NewWriter(os.Stdout, 1, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\thybrid\tpurecap")
		fmt.Fprintf(tw, "footprint (KiB)\t%.1f\t%.1f\n", float64(hy.FootprintBytes)/1024, float64(pc.FootprintBytes)/1024)
		fmt.Fprintf(tw, "sequential share\t%.1f%%\t%.1f%%\n", hy.SequentialShare*100, pc.SequentialShare*100)
		fmt.Fprintf(tw, "pointer-chase share\t%.1f%%\t%.1f%%\n", hy.PointerChaseShare*100, pc.PointerChaseShare*100)
		fmt.Fprintf(tw, "reuse p50 (lines)\t%d\t%d\n", hy.ReuseP50, pc.ReuseP50)
		fmt.Fprintf(tw, "reuse p90 (lines)\t%d\t%d\n", hy.ReuseP90, pc.ReuseP90)
		fmt.Fprintf(tw, "cold-miss share\t%.1f%%\t%.1f%%\n", hy.ColdShare*100, pc.ColdShare*100)
		tw.Flush()
		return
	}

	a, err := abi.Parse(*abiName)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s under %s:\n%s", w.Name, a, run(a))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}
