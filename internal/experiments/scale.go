package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/pmu"
	"cherisim/internal/report"
	"cherisim/internal/soc"
	"cherisim/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:      "scale",
		Title:   "Many-core scale-out: topology-aware fabric co-runs",
		Section: "§2.2 extension (many-core methodology)",
		Run:     runScale,
		// A Manual gate like security: run only via -run scale, never in
		// -all — topology co-runs are not part of the paper's quad-core
		// measurement campaign.
		Manual: true,
	})
}

// scaleWorkload is the kernel every fabric core runs: llama-matmul is
// cache-resident and ~1M µops solo, so even a 64-core co-run stays
// seconds-scale while still spilling enough L2 traffic to exercise the
// sliced LLC and the NoC.
const scaleWorkload = "llama-matmul"

// Default sweep axes; -topology and -cores override them.
var (
	defaultScaleTopos = []string{soc.TopoMesh, soc.TopoRing}
	defaultScaleCores = []int{16, 64}
	scaleABIs         = []abi.ABI{abi.Hybrid, abi.Purecap}
)

// runScale sweeps topology x core-count x ABI over fabric co-runs of the
// scale workload and renders per-cell slowdown against the solo baseline
// together with the fabric's contention accounting. Every cell's fabric
// counters are reconciled on both axes — slice/link tallies against
// per-core port stats, and port stats against the cores' PMU counter
// files — so the rendered contention numbers are conservation-checked,
// not merely plausible.
func runScale(s *Session) (string, error) {
	topos := s.Topologies
	if len(topos) == 0 {
		topos = defaultScaleTopos
	}
	for i, tp := range topos {
		kind, err := soc.ParseTopologyKind(tp)
		if err != nil {
			return "", err
		}
		topos[i] = kind
	}
	coreCounts := s.CoreCounts
	if len(coreCounts) == 0 {
		coreCounts = defaultScaleCores
	}
	for _, n := range coreCounts {
		if n < 1 || n > soc.MaxCores {
			return "", fmt.Errorf("scale: core count %d outside [1, %d]", n, soc.MaxCores)
		}
	}

	w, err := workloads.ByName(scaleWorkload)
	if err != nil {
		return "", err
	}
	spec := func(a abi.ABI) soc.CoreSpec {
		return soc.CoreSpec{
			Config: s.effectiveConfig(a),
			Body:   func(m *core.Machine) { w.Run(m, s.Scale) },
		}
	}
	specsFor := func(a abi.ABI, n int) []soc.CoreSpec {
		specs := make([]soc.CoreSpec, n)
		for i := range specs {
			specs[i] = spec(a)
		}
		return specs
	}

	// Solo baselines: the same body on a single-core fabric (one slice,
	// zero hops), so the slowdown ratio isolates interference.
	solo := make(map[abi.ABI]float64, len(scaleABIs))
	for _, a := range scaleABIs {
		res, _, err := s.CoRun(
			fmt.Sprintf("scale/solo/%s/%s", scaleWorkload, a),
			soc.Topology{Kind: soc.TopoMesh, Cores: 1},
			specsFor(a, 1))
		if err != nil {
			return "", fmt.Errorf("scale solo/%s: %w", a, err)
		}
		if res[0].Err != nil {
			return "", fmt.Errorf("scale solo/%s: %w", a, res[0].Err)
		}
		solo[a] = res[0].Metrics.Seconds
	}

	rep := report.NewScaleReport(scaleWorkload)
	var reconcileErrs []string
	for _, tp := range topos {
		for _, n := range coreCounts {
			for _, a := range scaleABIs {
				topo := soc.Topology{Kind: tp, Cores: n}
				id := fmt.Sprintf("scale/%s/%dx/%s/%s", tp, n, scaleWorkload, a)
				res, fab, err := s.CoRun(id, topo, specsFor(a, n))
				if err != nil {
					return "", fmt.Errorf("%s: %w", id, err)
				}
				cell, errs := scaleCell(tp, a, res, fab, solo[a])
				rep.Add(cell)
				for _, e := range errs {
					reconcileErrs = append(reconcileErrs, fmt.Sprintf("  %s: %s", id, e))
				}
			}
		}
	}

	if s.Telemetry.Enabled() {
		m := s.Telemetry.Metrics
		m.Counter("scale_cells").Add(int64(len(rep.Cells)))
		m.Counter("scale_reconcile_failures").Add(int64(len(reconcileErrs)))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Many-core scale-out: %s on mesh/ring fabrics, %d cells, slowdown vs 1-core solo\n", scaleWorkload, len(rep.Cells))
	b.WriteString("cores run one 8192-µop quantum per epoch concurrently; the epoch barrier weaves\n")
	b.WriteString("buffered slice traffic in a fixed cross-core order, so results are byte-identical\n")
	b.WriteString("for any GOMAXPROCS. Contention = per-epoch slice/link overflow, charged back.\n\n")

	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tcores\tslices\tabi\tepochs\tslowdown\tworst\tLLC rd MR\thops/acc\tslice-cont\tlink-cont")
	for _, c := range rep.Cells {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%.3fx\t%.3fx\t%.1f%%\t%.2f\t%d\t%d\n",
			c.Topology, c.Cores, c.Slices, c.ABI, c.Epochs,
			c.MeanSlowdown, c.WorstSlowdown, c.LLCReadMR*100,
			c.HopsPerAccess, c.SliceContention, c.LinkContention)
	}
	tw.Flush()

	if len(reconcileErrs) > 0 {
		fmt.Fprintf(&b, "\nfabric accounting FAILED to reconcile (%d):\n%s\n",
			len(reconcileErrs), strings.Join(reconcileErrs, "\n"))
		return b.String(), fmt.Errorf("scale: %d fabric accounting checks failed", len(reconcileErrs))
	}
	fmt.Fprintf(&b, "\nall %d cells reconcile: slice+link tallies == per-core port stats == PMU counter files\n", len(rep.Cells))
	return b.String(), nil
}

// scaleCell folds one co-run into a report cell and verifies the fabric's
// conservation laws against the cores' PMU counter files.
func scaleCell(topoKind string, a abi.ABI, res []RunData, fab *soc.FabricStats, soloSec float64) (report.ScaleCell, []string) {
	var errs []string
	cell := report.ScaleCell{
		Topology: topoKind,
		Cores:    len(res),
		Slices:   fab.Topology.Slices,
		ABI:      a.String(),
		Epochs:   fab.Epochs,
	}
	var worst, meanSum, mrSum float64
	for i, r := range res {
		if r.Err != nil {
			errs = append(errs, fmt.Sprintf("core %d: %v", i, r.Err))
			continue
		}
		ratio := r.Metrics.Seconds / soloSec
		meanSum += ratio
		if ratio > worst {
			worst = ratio
		}
		mrSum += r.Metrics.LLCReadMR
	}
	cell.MeanSlowdown = meanSum / float64(len(res))
	cell.WorstSlowdown = worst
	cell.LLCReadMR = mrSum / float64(len(res))

	sliceAcc, coreAcc, _, coreHops := fab.Totals()
	cell.Accesses = sliceAcc
	if coreAcc > 0 {
		cell.HopsPerAccess = float64(coreHops) / float64(coreAcc)
	}
	for i := range fab.Slices {
		cell.SliceContention += fab.Slices[i].ContentionCycles
	}
	for i := range fab.Links {
		cell.LinkContention += fab.Links[i].ContentionCycles
	}

	if err := fab.Reconcile(); err != nil {
		errs = append(errs, err.Error())
	}
	// Port stats vs PMU: both sides count the same post-L2 read stream.
	for i, r := range res {
		p := fab.Cores[i]
		if rd := r.Counters.Get(pmu.LL_CACHE_RD); rd != p.Reads {
			errs = append(errs, fmt.Sprintf("core %d: port reads %d vs PMU LL_CACHE_RD %d", i, p.Reads, rd))
		}
		if ms := r.Counters.Get(pmu.LL_CACHE_MISS_RD); ms != p.ReadMisses {
			errs = append(errs, fmt.Sprintf("core %d: port read misses %d vs PMU LL_CACHE_MISS_RD %d", i, p.ReadMisses, ms))
		}
	}
	return cell, errs
}
