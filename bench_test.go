package cherisim

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, each regenerating the corresponding artefact on
// the simulated Morello platform, plus micro-benchmarks of the simulator's
// substrate components. Experiment benchmarks share one measurement
// session (as the paper shares one measurement campaign across analyses);
// the first benchmark to need a (workload, ABI) pair pays for its
// execution and the session caches it thereafter.
//
// Regenerate everything textually with:  go run ./cmd/experiments -all

import (
	"sync"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/branch"
	"cherisim/internal/cache"
	"cherisim/internal/cap"
	"cherisim/internal/core"
	"cherisim/internal/experiments"
	"cherisim/internal/tlb"
)

var (
	sessOnce sync.Once
	sess     *experiments.Session
)

func session() *experiments.Session {
	sessOnce.Do(func() { sess = experiments.NewSession(1) })
	return sess
}

func benchExperiment(b *testing.B, id string) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	s := session()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1Metrics regenerates Table 1 (PMU events and derived
// metrics, demonstrated on live counters).
func BenchmarkTable1Metrics(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2MemoryIntensity regenerates Table 2 (memory intensity of
// all 20 workloads).
func BenchmarkTable2MemoryIntensity(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig1Overheads regenerates Figure 1 (execution time normalized
// to hybrid across all workloads and ABIs).
func BenchmarkFig1Overheads(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2BinarySize regenerates Figure 2 (per-section binary size
// ratios from the linker model).
func BenchmarkFig2BinarySize(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkTable3KeyMetrics regenerates Table 3 (the 12-benchmark metric
// grid across three ABIs).
func BenchmarkTable3KeyMetrics(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4TopDown regenerates Table 4 / Figure 3 (hierarchical
// top-down breakdown for the six selected workloads).
func BenchmarkTable4TopDown(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig4CoreMemBound regenerates Figure 4 (core-bound vs
// memory-bound shares).
func BenchmarkFig4CoreMemBound(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5InstructionMix regenerates Figure 5 (speculative
// instruction-mix distribution per ABI).
func BenchmarkFig5InstructionMix(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6MemoryBound regenerates Figure 6 (memory-bound
// decomposition).
func BenchmarkFig6MemoryBound(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Correlation regenerates Figure 7 (the metric correlation
// matrix, hybrid vs purecap).
func BenchmarkFig7Correlation(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkClaims re-evaluates the §4/§5 headline claims.
func BenchmarkClaims(b *testing.B) { benchExperiment(b, "claims") }

// BenchmarkAblationPredictor runs the §5 capability-aware-predictor
// projection.
func BenchmarkAblationPredictor(b *testing.B) { benchExperiment(b, "ablation-predictor") }

// BenchmarkAblationStoreQueue runs the capability-width store-queue
// projection.
func BenchmarkAblationStoreQueue(b *testing.B) { benchExperiment(b, "ablation-storequeue") }

// BenchmarkAblationCaches runs the doubled-L2/LLC projection.
func BenchmarkAblationCaches(b *testing.B) { benchExperiment(b, "ablation-caches") }

// --- Substrate micro-benchmarks ---

// BenchmarkCapSetBounds measures CHERI Concentrate bounds compression.
func BenchmarkCapSetBounds(b *testing.B) {
	root := cap.Root()
	for i := 0; i < b.N; i++ {
		c, err := root.SetBounds(uint64(i)<<12, 1<<20)
		if err != nil || !c.Valid() {
			b.Fatal("setbounds failed")
		}
	}
}

// BenchmarkCapEncodeDecode measures the 128-bit memory-format round trip.
func BenchmarkCapEncodeDecode(b *testing.B) {
	c := cap.New(0x4000_0000, 1<<16, cap.PermsData)
	for i := 0; i < b.N; i++ {
		enc, tag := c.Encode()
		d := cap.Decode(enc, tag)
		if d.Base() != c.Base() {
			b.Fatal("round trip corrupted")
		}
	}
}

// BenchmarkCacheAccess measures the set-associative cache model on a
// streaming (miss-heavy) pattern — the folded single-pass victim scan.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.L1DConfig)
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)%(1<<21), i%4 == 0)
	}
}

// BenchmarkCacheAccessHot measures the line-reuse pattern every workload's
// inner loops produce — the MRU-way fast path.
func BenchmarkCacheAccessHot(b *testing.B) {
	c := cache.New(cache.L1DConfig)
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%4)*8, false)
	}
}

// BenchmarkTLBTranslate measures the two-level TLB with walker on a
// page-per-access sweep (worst case for the translation memo).
func BenchmarkTLBTranslate(b *testing.B) {
	h := tlb.NewHierarchy(tlb.L1DConfig, tlb.New(tlb.L2Config))
	for i := 0; i < b.N; i++ {
		h.Translate(uint64(i) << 12 % (1 << 30))
	}
}

// BenchmarkTLBTranslateHot measures same-page translation runs — the
// last-translation fast path that core.translateD rides.
func BenchmarkTLBTranslateHot(b *testing.B) {
	h := tlb.NewHierarchy(tlb.L1DConfig, tlb.New(tlb.L2Config))
	for i := 0; i < b.N; i++ {
		h.Translate(0x4000_0000 + uint64(i%64)*8)
	}
}

// BenchmarkPredictor measures the gshare direction predictor.
func BenchmarkPredictor(b *testing.B) {
	p := branch.New()
	for i := 0; i < b.N; i++ {
		p.Resolve(uint64(i%64)<<2, branch.Immed, i%3 == 0, 0, false)
	}
}

// BenchmarkAllocator measures the purecap heap fast path (alloc+free with
// representability rounding).
func BenchmarkAllocator(b *testing.B) {
	h := alloc.New(abi.Purecap, 0x4000_0000, 1<<32)
	for i := 0; i < b.N; i++ {
		a, err := h.Alloc(uint64(64 + i%256))
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineLoadStore measures the full simulated memory path
// (bounds check, TLB, three cache levels, tag memory).
func BenchmarkMachineLoadStore(b *testing.B) {
	m := core.New(abi.Purecap)
	m.Func("bench", 512, 64)
	var p core.Ptr
	err := m.Run(func(m *core.Machine) {
		p = m.Alloc(1 << 20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := core.Ptr(uint64(i*64) % (1 << 20))
			m.Store(p+off, uint64(i), 8)
			m.Load(p+off, 8)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWorkloadOmnetppPurecap measures one full workload execution per
// iteration — the simulator's end-to-end throughput.
func BenchmarkWorkloadOmnetppPurecap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run("520.omnetpp_r", Purecap, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}
