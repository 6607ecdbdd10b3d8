package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/soc"
	"cherisim/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:      "ext-multicore",
		Title:   "Extension: quad-core co-runs on the shared LLC",
		Section: "§2.2 — 1 MB LL cache shared by 4 cores (paper measured solo cores)",
		Run:     runExtMulticore,
		Pairs: func() []Pair {
			return namedPairs([]string{"520.omnetpp_r", "sqlite", "llama-matmul"}, abi.Hybrid, abi.Purecap)
		},
	})
}

// runExtMulticore extends the paper's solo-core methodology to the
// multiprogrammed quad-core case: four copies of a workload co-run on the
// SoC fabric's default quad-core mesh, whose four slices form the shared
// 1 MiB system-level cache, and the per-core slowdown versus a solo run
// quantifies LLC contention under each ABI. Because purecap working sets
// are larger, contention compounds CHERI's overhead — a second-order
// effect invisible in the paper's solo measurements.
func runExtMulticore(s *Session) (string, error) {
	names := []string{"520.omnetpp_r", "sqlite", "llama-matmul"}

	var b strings.Builder
	b.WriteString("Extension: 4-way co-run vs solo, per-core slowdown from shared-LLC contention\n\n")
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tabi\tsolo LLCrdMR%\tco-run LLCrdMR%\tco-run/solo time")
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return "", err
		}
		for _, a := range []abi.ABI{abi.Hybrid, abi.Purecap} {
			solo := s.Run(w, a)
			if solo.Err != nil {
				return "", fmt.Errorf("%s/%s: %w", name, a, solo.Err)
			}

			specs := make([]soc.CoreSpec, 4)
			for i := range specs {
				specs[i] = soc.CoreSpec{
					Config: core.DefaultConfig(a),
					Body:   func(m *core.Machine) { w.Run(m, s.Scale) },
				}
			}
			res, _, err := s.CoRun("multicore/"+name+"/x4", soc.Topology{Kind: soc.TopoMesh, Cores: 4}, specs)
			if err != nil {
				return "", fmt.Errorf("%s/%s: %w", name, a, err)
			}
			var worst float64
			var llc float64
			for i, r := range res {
				if r.Err != nil {
					return "", fmt.Errorf("%s/%s core %d: %w", name, a, i, r.Err)
				}
				if ratio := r.Metrics.Seconds / solo.Metrics.Seconds; ratio > worst {
					worst = ratio
				}
				llc += r.Metrics.LLCReadMR
			}
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%.3fx\n",
				name, a, solo.Metrics.LLCReadMR*100, llc/4*100, worst)
		}
	}
	tw.Flush()
	b.WriteString("\nCo-run time is the slowest core's and includes NoC hop latency: the cores\n")
	b.WriteString("sit on a 2x2 mesh with the LLC in four 256 KiB slices and run\n")
	b.WriteString("deterministic 8192-µop epochs; each core has private L1/L2 and its own\n")
	b.WriteString("address space mapped onto the shared LLC.\n")
	return b.String(), nil
}
