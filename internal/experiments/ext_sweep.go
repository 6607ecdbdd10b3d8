package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
)

func init() {
	register(&Experiment{
		ID:      "ext-sweep",
		Title:   "Extension: purecap overhead vs working-set size (cache-boundary crossovers)",
		Section: "§4.7 — 'fewer logical elements fit within a cache line or cache level'",
		Run:     runExtSweep,
	})
}

// chaseKernel builds a shuffled singly-linked list of `nodes` records
// (two pointers + two words each, the paper's canonical pointer-rich
// shape) and chases it for a fixed number of hops, so work is constant
// while the working set sweeps across the cache hierarchy.
func chaseKernel(nodes, hops int) func(*core.Machine) {
	return func(m *core.Machine) {
		m.Func("chase", 1024, 64)
		l := m.Layout(core.FieldPtr, core.FieldPtr, core.FieldU64, core.FieldU64)
		ptrs := make([]core.Ptr, nodes)
		for i := range ptrs {
			ptrs[i] = m.AllocRecord(l)
		}
		// Deterministic shuffle.
		seed := uint64(99)
		perm := make([]int, nodes)
		for i := range perm {
			perm[i] = i
		}
		for i := nodes - 1; i > 0; i-- {
			seed = seed*6364136223846793005 + 1442695040888963407
			j := int(seed % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := 0; i < nodes; i++ {
			next := ptrs[perm[(i+1)%nodes]]
			m.StorePtr(l.Field(ptrs[perm[i]], 0), next)
		}
		p := ptrs[perm[0]]
		for h := 0; h < hops; h++ {
			m.ALU(2)
			p = m.LoadPtr(l.Field(p, 0))
			m.BranchAt(4001, h+1 < hops)
		}
	}
}

// runExtSweep measures purecap/hybrid cycle ratio for a pointer-chase
// kernel as its node count sweeps the working set across L1D, L2 and the
// LLC. The overhead peaks exactly where the hybrid working set still fits
// a level that the 1.5x-larger purecap set has outgrown — the §4.7
// mechanism as a curve, locating the crossovers the paper's fixed-size
// benchmarks only sample.
func runExtSweep(s *Session) (string, error) {
	const hops = 60000
	nodeCounts := []int{512, 2048, 8192, 16384, 32768, 65536, 131072}
	abis := []abi.ABI{abi.Hybrid, abi.Purecap}

	// The kernels are independent: run them across the fleet, then render
	// in sweep order.
	krs := make([]*RunData, len(nodeCounts)*len(abis))
	err := fanOut(len(krs), func(i int) (err error) {
		n := nodeCounts[i/len(abis)]
		id := fmt.Sprintf("sweep/chase:nodes=%d:hops=%d", n, hops)
		krs[i], err = s.RunKernel(id, core.DefaultConfig(abis[i%len(abis)]), chaseKernel(n, hops))
		return err
	})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("Extension: pointer-chase overhead vs working-set size (fixed 60k hops)\n\n")
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "nodes\thybrid WS\tpurecap WS\thybrid(ms)\tpurecap(ms)\tpurecap/hybrid")
	var peak float64
	var peakNodes int
	for j, n := range nodeCounts {
		hy, pc := krs[j*len(abis)], krs[j*len(abis)+1]
		ratio := pc.Metrics.Seconds / hy.Metrics.Seconds
		if ratio > peak {
			peak, peakNodes = ratio, n
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.3f\t%.3f\t%.3f\n",
			n, fmtBytes(hy.Heap.BrkBytes), fmtBytes(pc.Heap.BrkBytes),
			hy.Metrics.Seconds*1e3, pc.Metrics.Seconds*1e3, ratio)
	}
	tw.Flush()
	fmt.Fprintf(&b, "\npeak overhead %.2fx at %d nodes: the hybrid working set still fits a\n", peak, peakNodes)
	b.WriteString("cache level that the capability-widened set has outgrown. Small sets fit\n")
	b.WriteString("everywhere (overhead = instruction inflation only); huge sets miss\n")
	b.WriteString("everywhere (both ABIs DRAM-bound, overhead compresses). The paper's\n")
	b.WriteString("fixed-input benchmarks sample single points of this curve.\n")
	return b.String(), nil
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
