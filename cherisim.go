// Package cherisim is a performance-characterization platform for CHERI
// capability architectures, reproducing the measurement study "Sweet or
// Sour CHERI: Performance Characterization of the Arm Morello Platform"
// (IISWC 2025) in pure Go.
//
// The package is the public facade over the simulator's subsystems:
//
//   - a CHERI Concentrate 128-bit compressed-capability model with
//     out-of-band tags (internal/cap, internal/mem);
//   - a Neoverse-N1-like core with Morello's cache/TLB geometry, branch
//     prediction (including the prototype's PCC-bounds limitation), and
//     the N1+Morello PMU event set (internal/core, internal/cache,
//     internal/tlb, internal/branch, internal/pmu);
//   - the three CheriBSD ABIs — hybrid, purecap-benchmark and purecap —
//     as code-generation lowerings (internal/abi);
//   - the paper's 20 workloads as algorithm kernels (internal/workloads);
//   - the top-down analysis methodology and Table 1 derived metrics
//     (internal/topdown, internal/metrics);
//   - regenerators for every table and figure of the paper's evaluation
//     (internal/experiments).
//
// Quickstart:
//
//	res, err := cherisim.Run("sqlite", cherisim.Purecap, 1)
//	if err != nil { ... }
//	fmt.Printf("time %.3fs IPC %.2f\n", res.Metrics.Seconds, res.Metrics.IPC)
package cherisim

import (
	"fmt"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/experiments"
	"cherisim/internal/metrics"
	"cherisim/internal/pmu"
	"cherisim/internal/soc"
	"cherisim/internal/topdown"
	"cherisim/internal/workloads"
)

// ABI selects a CheriBSD application binary interface.
type ABI = abi.ABI

// The three ABIs the paper compares.
const (
	// Hybrid is the AArch64 baseline with 64-bit integer pointers.
	Hybrid = abi.Hybrid
	// Benchmark is the purecap-benchmark ABI: purecap memory layout with
	// integer jumps, isolating Morello's PCC branch-predictor limitation.
	Benchmark = abi.Benchmark
	// Purecap is the pure-capability ABI: every pointer is a 128-bit
	// capability and control transfers are capability jumps.
	Purecap = abi.Purecap
)

// ParseABI resolves an ABI name ("hybrid", "benchmark", "purecap").
func ParseABI(s string) (ABI, error) { return abi.Parse(s) }

// Machine is one simulated Morello core with its memory system; see
// NewMachine for direct (non-workload) use of the execution API.
type Machine = core.Machine

// Config parameterises a Machine; DefaultConfig returns Morello values.
type Config = core.Config

// NewMachine builds a Morello machine for the given ABI.
func NewMachine(a ABI) *Machine { return core.New(a) }

// NewMachineConfig builds a machine from an explicit configuration,
// enabling the paper's projection experiments (capability-aware branch
// predictor, resized caches, capability-width store queues).
func NewMachineConfig(cfg Config) *Machine { return core.NewMachine(cfg) }

// DefaultConfig returns the Morello platform configuration for an ABI.
func DefaultConfig(a ABI) Config { return core.DefaultConfig(a) }

// Workload is one of the paper's 20 benchmark kernels.
type Workload = workloads.Workload

// Workloads returns the full 20-workload catalogue.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName resolves a workload by its paper identifier
// (e.g. "520.omnetpp_r", "quickjs").
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Metrics is the Table 1 derived-metric set.
type Metrics = metrics.Metrics

// Breakdown is the two-level top-down decomposition.
type Breakdown = topdown.Breakdown

// Counters is the full PMU counter file.
type Counters = pmu.Counters

// Result is the outcome of running a workload on the simulated platform.
type Result struct {
	// Counters is the ground-truth PMU counter file of the run.
	Counters Counters
	// Metrics holds the paper's derived metrics (Table 1 formulas).
	Metrics Metrics
	// Topdown holds the hierarchical bottleneck decomposition.
	Topdown Breakdown
	// HeapBytes is the address-space footprint of the simulated heap.
	HeapBytes uint64
}

// Run executes the named workload under ABI a at the given scale
// (1 = default length) and returns its measurements. Simulated capability
// faults surface as the returned error with partial measurements attached.
func Run(workload string, a ABI, scale int) (*Result, error) {
	return RunConfig(workload, DefaultConfig(a), scale)
}

// RunConfig is Run with an explicit machine configuration.
func RunConfig(workload string, cfg Config, scale int) (*Result, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	m, runErr := workloads.ExecuteConfig(w, cfg, scale)
	res := &Result{
		Counters:  m.C,
		Metrics:   metrics.Compute(&m.C),
		Topdown:   topdown.Analyze(&m.C),
		HeapBytes: m.Heap.Stats().BrkBytes,
	}
	return res, runErr
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment = experiments.Experiment

// Experiments returns every table/figure regenerator in paper order.
func Experiments() []*Experiment { return experiments.All() }

// ExperimentByID resolves a regenerator by handle ("fig1", "table3", ...).
func ExperimentByID(id string) (*Experiment, error) { return experiments.ByID(id) }

// NewExperimentSession creates a cached measurement session for running
// experiments at the given workload scale. The session is safe for
// concurrent use: same-key callers are deduplicated onto one in-flight
// execution, distinct keys run in parallel across a worker pool (set
// Session.Jobs to bound it; see NewParallelExperimentSession).
func NewExperimentSession(scale int) *experiments.Session {
	return experiments.NewSession(scale)
}

// NewParallelExperimentSession creates a measurement session whose worker
// pool runs up to min(GOMAXPROCS, jobs) workloads concurrently. Rendering
// experiments after a Prefetch/RunAll produces bytes identical to a serial
// session — each (workload, ABI) run is deterministic and isolated.
func NewParallelExperimentSession(scale, jobs int) *experiments.Session {
	s := experiments.NewSession(scale)
	s.Jobs = jobs
	return s
}

// ExperimentPair names one (workload, ABI) measurement of the campaign.
type ExperimentPair = experiments.Pair

// CampaignGrid returns the paper's full measurement grid — every runnable
// workload crossed with the three ABIs — for use with Session.Prefetch.
func CampaignGrid() []ExperimentPair { return experiments.CampaignGrid() }

func resultOf(m *Machine, err error) (*Result, error) {
	return &Result{
		Counters:  m.C,
		Metrics:   metrics.Compute(&m.C),
		Topdown:   topdown.Analyze(&m.C),
		HeapBytes: m.Heap.Stats().BrkBytes,
	}, err
}

// RunTemporalSafety runs a workload under purecap with Cornucopia-style
// heap temporal safety (quarantine-on-free plus revocation sweeps) and
// returns the measurements together with the sweep statistics.
func RunTemporalSafety(workload string, scale int) (*Result, []core.RevocationStats, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, nil, err
	}
	cfg := DefaultConfig(Purecap)
	cfg.TemporalSafety = true
	m, runErr := workloads.ExecuteConfig(w, cfg, scale)
	res, _ := resultOf(m, nil)
	return res, m.Revocations(), runErr
}

// CoRun co-runs the named workloads, one per simulated core, under ABI a
// (up to the Morello SoC's four cores) on the SoC fabric's default mesh
// for that core count, whose address-interleaved slices form the shared
// 1 MiB system-level cache. Co-runs are deterministic; results are
// per-core, in input order. When a core faults, the error describes the
// first faulting core and the returned slice still carries every core's
// partial measurements (the faulting core's counters are finalized up to
// the fault), matching Run's "partial measurements attached" contract.
func CoRun(names []string, a ABI, scale int) ([]*Result, error) {
	if len(names) == 0 || len(names) > 4 {
		return nil, fmt.Errorf("cherisim: CoRun takes 1-4 workloads, got %d", len(names))
	}
	specs := make([]soc.CoreSpec, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = soc.CoreSpec{
			Config: DefaultConfig(a),
			Body:   func(m *Machine) { w.Run(m, scale) },
		}
	}
	res, err := soc.RunTopology(soc.Topology{Kind: soc.TopoMesh, Cores: len(specs)}, specs)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(res.Cores))
	var firstErr error
	for i, r := range res.Cores {
		out[i], _ = resultOf(r.Machine, nil)
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core %d (%s): %w", i, names[i], r.Err)
		}
	}
	return out, firstErr
}
