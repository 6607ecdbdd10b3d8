// Command calibrate prints the simulator's per-workload characterization
// next to the paper's reference values, for tuning workload kernels. It
// measures through an experiments session, prefetched across the worker
// pool. It is a development tool; the user-facing regenerators live in
// cmd/experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/experiments"
	"cherisim/internal/pmu"
	"cherisim/internal/workloads"
)

func main() {
	scale := flag.Int("scale", 1, "workload scale factor")
	one := flag.String("w", "", "run a single catalogue workload")
	flag.Parse()

	ws, err := selectWorkloads(*one)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	var pairs []experiments.Pair
	for _, w := range ws {
		for _, a := range abi.All() {
			pairs = append(pairs, experiments.Pair{Workload: w, ABI: a})
		}
	}
	s := experiments.NewSession(*scale)
	s.Prefetch(pairs)

	tw := tabwriter.NewWriter(os.Stdout, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tMI(hy)\tpaperMI\tbench/hy\tpure/hy\tinstR\tipcR\tcapLD%\tcapSD%\tL1D%\tL2%\tL1I%\tbrMR%\tFE%\tBE%\tMuops")
	for _, w := range ws {
		var secs, insts, ipcs [3]float64
		var hyMI, capLD, capSD, l1d, l2, l1i, brmr, fe, be, inst float64
		for i, a := range abi.All() {
			d := s.Run(w, a)
			if d.Err != nil {
				fmt.Fprintf(os.Stderr, "%s/%s: %v\n", w.Name, a, d.Err)
				continue
			}
			mm := &d.Metrics
			secs[i] = mm.Seconds
			insts[i] = float64(d.Counters.Get(pmu.INST_RETIRED))
			ipcs[i] = mm.IPC
			if a == abi.Hybrid {
				hyMI = mm.MemoryIntensity
				l1i = mm.L1IMR * 100
				brmr = mm.BranchMR * 100
			}
			if a == abi.Purecap {
				capLD = mm.CapLoadDensity * 100
				capSD = mm.CapStoreDensity * 100
				l1d = mm.L1DMR * 100
				l2 = mm.L2MR * 100
				fe = mm.FrontendBound * 100
				be = mm.BackendBound * 100
				inst = float64(d.Counters.Get(pmu.INST_RETIRED)) / 1e6
			}
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f\t%.2f\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.1f\t%.1f\t%.2f\n",
			w.Name, hyMI, w.PaperMI, secs[1]/secs[0], secs[2]/secs[0],
			insts[2]/insts[0], ipcs[2]/ipcs[0],
			capLD, capSD, l1d, l2, l1i, brmr, fe, be, inst)
	}
	tw.Flush()
}

// selectWorkloads resolves -w: the whole catalogue (workloads.All) when
// name is empty, else the named workload, which must be in it — the
// Appendix Table 5 and attack-corpus workloads resolve by name but have no
// paper characterization to calibrate against.
func selectWorkloads(name string) ([]*workloads.Workload, error) {
	if name == "" {
		return workloads.All(), nil
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(workloads.Names(), name) {
		return nil, fmt.Errorf("%s is outside the catalogue: calibration covers the %d workloads of workloads.All()", name, len(workloads.Names()))
	}
	return []*workloads.Workload{w}, nil
}
