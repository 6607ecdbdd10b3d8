package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/loader"
	"cherisim/internal/pmu"
	"cherisim/internal/stats"
	"cherisim/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:      "fig1",
		Title:   "Overall execution performance normalized to hybrid",
		Section: "§4.1, Figure 1",
		Run:     runFig1,
		Pairs:   func() []Pair { return pairsOf(workloads.All(), abi.All()...) },
	})
	register(&Experiment{
		ID:      "fig2",
		Title:   "Program section sizes normalized to hybrid",
		Section: "§4.2, Figure 2",
		Run:     runFig2,
	})
	register(&Experiment{
		ID:      "fig4",
		Title:   "Core-bound vs memory-bound counter percentages",
		Section: "§4.6, Figure 4",
		Run:     runFig4,
		Pairs:   func() []Pair { return pairsOf(workloads.TopDownSet(), abi.All()...) },
	})
	register(&Experiment{
		ID:      "fig5",
		Title:   "Speculative instruction-mix distribution per ABI",
		Section: "§4.6, Figure 5",
		Run:     runFig5,
		Pairs:   func() []Pair { return pairsOf(workloads.All(), abi.All()...) },
	})
	register(&Experiment{
		ID:      "fig6",
		Title:   "Memory-bound analysis (cache vs DRAM)",
		Section: "§4.7, Figure 6",
		Run:     runFig6,
		Pairs:   func() []Pair { return pairsOf(workloads.TopDownSet(), abi.All()...) },
	})
	register(&Experiment{
		ID:      "fig7",
		Title:   "Performance correlation matrix (hybrid vs purecap)",
		Section: "§4.8, Figure 7",
		Run:     runFig7,
		Pairs:   func() []Pair { return pairsOf(workloads.All(), abi.Hybrid, abi.Purecap) },
	})
}

// runFig1 reports execution time per ABI normalized to hybrid for every
// workload, the paper's headline figure.
func runFig1(s *Session) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 1: execution time normalized to hybrid (lower is better)\n")
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\thybrid\tbenchmark-abi\tpurecap\tpaper(bench)\tpaper(purecap)")
	var benchRatios, pureRatios []float64
	for _, w := range workloads.All() {
		bench := s.Overhead(w, abi.Benchmark)
		pure := s.Overhead(w, abi.Purecap)
		benchRatios = append(benchRatios, bench)
		pureRatios = append(pureRatios, pure)
		pb, pp := "-", "-"
		if w.PaperTimes[0] > 0 {
			if w.PaperTimes[1] > 0 {
				pb = fmt.Sprintf("%.3f", w.PaperTimes[1]/w.PaperTimes[0])
			} else if w.PaperTimes[1] < 0 {
				pb = "NA"
			}
			if w.PaperTimes[2] > 0 {
				pp = fmt.Sprintf("%.3f", w.PaperTimes[2]/w.PaperTimes[0])
			}
		}
		fmt.Fprintf(tw, "%s\t1.000\t%.3f\t%.3f\t%s\t%s\n", w.Name, bench, pure, pb, pp)
	}
	tw.Flush()
	fmt.Fprintf(&b, "\ngeomean: benchmark-abi %.3f, purecap %.3f (paper range: ~1.0x to 2.66x)\n",
		stats.GeoMean(benchRatios), stats.GeoMean(pureRatios))
	return b.String(), nil
}

// runFig2 reports the binary-section size distribution from the loader
// model, next to the paper's reported medians.
func runFig2(s *Session) (string, error) {
	paperMedians := map[string]float64{
		".text": 1.10, ".rodata": 0.81, ".rela.dyn": 85, "total": 1.05,
	}
	var b strings.Builder
	b.WriteString("Figure 2: section sizes normalized to hybrid (median across programs)\n")
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "section\tbenchmark-abi\tpurecap\tpaper(~)")
	bm, bmAbs, err := loader.MedianRatios(abi.Benchmark)
	if err != nil {
		return "", err
	}
	pc, pcAbs, err := loader.MedianRatios(abi.Purecap)
	if err != nil {
		return "", err
	}
	for _, sec := range append(loader.SectionOrder, "total") {
		paper := "-"
		if v, ok := paperMedians[sec]; ok {
			paper = fmt.Sprintf("%.2fx", v)
		}
		if _, ok := pc[sec]; !ok {
			// Absent under hybrid: report absolute sizes.
			fmt.Fprintf(tw, "%s\t%dB\t%dB\t(absolute; absent in hybrid)\n", sec, bmAbs[sec], pcAbs[sec])
			continue
		}
		fmt.Fprintf(tw, "%s\t%.2fx\t%.2fx\t%s\n", sec, bm[sec], pc[sec], paper)
	}
	tw.Flush()
	return b.String(), nil
}

// runFig4 reports the level-2 backend split for the six top-down
// workloads.
func runFig4(s *Session) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 4: core-bound vs memory-bound shares of cycles\n")
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tabi\tmemory-bound%\tcore-bound%\tbackend%")
	for _, w := range workloads.TopDownSet() {
		for _, a := range abi.All() {
			d := s.Run(w, a)
			if d.Err != nil {
				return "", fmt.Errorf("%s/%s: %w", w.Name, a, d.Err)
			}
			td := d.Topdown
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%.1f\n",
				w.Name, a, td.MemoryBound*100, td.CoreBound*100, td.BackendBound*100)
		}
	}
	tw.Flush()
	return b.String(), nil
}

// runFig5 reports the distribution of speculative instruction classes per
// ABI across all workloads, highlighting the DP_SPEC share growth.
func runFig5(s *Session) (string, error) {
	classes := []pmu.Event{pmu.LD_SPEC, pmu.ST_SPEC, pmu.DP_SPEC, pmu.ASE_SPEC, pmu.VFP_SPEC, pmu.BR_IMMED_SPEC, pmu.BR_INDIRECT_SPEC, pmu.BR_RETURN_SPEC}
	var b strings.Builder
	b.WriteString("Figure 5: speculative instruction mix (% of SUM(class *_SPEC))\n")
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tabi\tLD\tST\tDP\tASE\tVFP\tBR")
	var dpGrowth []float64
	for _, w := range workloads.All() {
		var dpShare [3]float64
		for i, a := range abi.All() {
			d := s.Run(w, a)
			if d.Err != nil {
				return "", fmt.Errorf("%s/%s: %w", w.Name, a, d.Err)
			}
			tot := float64(d.Counters.Sum(classes...))
			// float64(...) keeps share(a)+share(b) from fusing into a
			// multiply-add on arm64, so every host prints the same digits.
			share := func(e pmu.Event) float64 { return float64(float64(d.Counters.Get(e)) / tot * 100) }
			br := share(pmu.BR_IMMED_SPEC) + share(pmu.BR_INDIRECT_SPEC) + share(pmu.BR_RETURN_SPEC)
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				w.Name, a, share(pmu.LD_SPEC), share(pmu.ST_SPEC), share(pmu.DP_SPEC),
				share(pmu.ASE_SPEC), share(pmu.VFP_SPEC), br)
			dpShare[i] = share(pmu.DP_SPEC)
		}
		dpGrowth = append(dpGrowth, dpShare[2]-dpShare[0])
	}
	tw.Flush()
	min, max := dpGrowth[0], dpGrowth[0]
	for _, g := range dpGrowth {
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	fmt.Fprintf(&b, "\nDP_SPEC share growth hybrid->purecap: %.2f to %.2f points (paper: 5.21 to 29.31)\n", min, max)
	return b.String(), nil
}

// runFig6 reports where memory-bound stall cycles are served from.
func runFig6(s *Session) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 6: memory-bound decomposition (share of cycles)\n")
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tabi\tL1-bound%\tL2-bound%\textmem-bound%\tDTLB-WPKI")
	for _, w := range workloads.TopDownSet() {
		for _, a := range abi.All() {
			d := s.Run(w, a)
			if d.Err != nil {
				return "", fmt.Errorf("%s/%s: %w", w.Name, a, d.Err)
			}
			td, m := d.Topdown, d.Metrics
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.2f\t%.3f\n",
				w.Name, a, td.L1Bound*100, td.L2Bound*100, td.ExtMemBound*100, m.DTLBWPKI)
		}
	}
	tw.Flush()
	return b.String(), nil
}

// runFig7 computes the Pearson correlation matrix across the workload
// sample set for hybrid and purecap, reporting the strongly-correlated
// metric pairs the paper highlights.
func runFig7(s *Session) (string, error) {
	labels := []string{"IPC", "brMR", "L1D_RF", "L2_RF", "L1I_RF", "DTLB_W", "ITLB_W", "CAP_RD", "CAP_WR", "STL_FE", "STL_BE"}
	collect := func(a abi.ABI) ([][]float64, error) {
		series := make([][]float64, len(labels))
		for _, w := range workloads.All() {
			d := s.Run(w, a)
			if d.Err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, a, d.Err)
			}
			c, m := &d.Counters, d.Metrics
			inst := float64(c.Get(pmu.INST_RETIRED))
			norm := func(e pmu.Event) float64 { return float64(c.Get(e)) / inst * 1000 }
			vals := []float64{
				m.IPC, m.BranchMR,
				norm(pmu.L1D_CACHE_REFILL), norm(pmu.L2D_CACHE_REFILL), norm(pmu.L1I_CACHE_REFILL),
				norm(pmu.DTLB_WALK), norm(pmu.ITLB_WALK),
				norm(pmu.CAP_MEM_ACCESS_RD), norm(pmu.CAP_MEM_ACCESS_WR),
				norm(pmu.STALL_FRONTEND), norm(pmu.STALL_BACKEND),
			}
			for i, v := range vals {
				series[i] = append(series[i], v)
			}
		}
		return series, nil
	}

	var b strings.Builder
	for _, a := range []abi.ABI{abi.Hybrid, abi.Purecap} {
		series, err := collect(a)
		if err != nil {
			return "", err
		}
		mtx, err := stats.Correlate(labels, series)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Figure 7 (%s): correlation matrix over the %d-workload sample\n%s\n", a, len(workloads.All()), mtx)
		fmt.Fprintf(&b, "strong pairs (|r|>=0.8): %s\n\n", strings.Join(mtx.StrongPairs(0.8), "; "))
	}
	return b.String(), nil
}
