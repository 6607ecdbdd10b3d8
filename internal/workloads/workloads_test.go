package workloads

import (
	"math"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/metrics"
	"cherisim/internal/pmu"
)

// execute runs w under ABI a's default configuration with no setup hook.
func execute(w *Workload, a abi.ABI, scale int) (*core.Machine, error) {
	return ExecuteHooked(w, core.DefaultConfig(a), scale, nil)
}

func TestRegistryComplete(t *testing.T) {
	if n := len(All()); n != 20 {
		t.Errorf("registry holds %d workloads, want the paper's 20", n)
	}
	if n := len(Selected()); n != 12 {
		t.Errorf("selected set = %d, want Table 3's 12", n)
	}
	if n := len(TopDownSet()); n != 6 {
		t.Errorf("top-down set = %d, want Table 4's 6", n)
	}
	for _, w := range Selected() {
		if w == nil {
			t.Fatal("selected workload missing from registry")
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("520.omnetpp_r")
	if err != nil || w.Name != "520.omnetpp_r" {
		t.Fatalf("ByName = %v, %v", w, err)
	}
	if _, err := ByName("400.perlbench"); err == nil {
		t.Error("unknown workload resolved")
	}
}

// run executes one workload/ABI at test scale, failing the test on faults.
func run(t *testing.T, name string, a abi.ABI) *metrics.Metrics {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := execute(w, a, 1)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, a, err)
	}
	mm := metrics.Compute(&m.C)
	return &mm
}

func TestAllWorkloadsRunUnderAllABIs(t *testing.T) {
	// Smoke coverage of the full 20x3 matrix, checking counter sanity.
	for _, w := range All() {
		for _, a := range abi.All() {
			m, err := execute(w, a, 1)
			if err != nil {
				t.Errorf("%s/%s faulted: %v", w.Name, a, err)
				continue
			}
			if m.C.Get(pmu.CPU_CYCLES) == 0 || m.C.Get(pmu.INST_RETIRED) == 0 {
				t.Errorf("%s/%s: empty counters", w.Name, a)
			}
			if fe, cyc := m.C.Get(pmu.STALL_FRONTEND)+m.C.Get(pmu.STALL_BACKEND), m.C.Get(pmu.CPU_CYCLES); fe > cyc {
				t.Errorf("%s/%s: stalls %d exceed cycles %d", w.Name, a, fe, cyc)
			}
			if a == abi.Hybrid && m.C.Get(pmu.CAP_MEM_ACCESS_RD) != 0 {
				t.Errorf("%s/hybrid produced capability loads", w.Name)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"sqlite", "541.leela_r"} {
		w, _ := ByName(name)
		a, err := execute(w, abi.Purecap, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := execute(w, abi.Purecap, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.C != b.C {
			t.Errorf("%s: two runs differ", name)
		}
	}
}

func TestMemoryIntensityMatchesPaper(t *testing.T) {
	// Table 2 reproduction: hybrid-mode MI within a tolerance band of the
	// paper's measured values (kernels are synthetic proxies, so exact
	// equality is not expected; the compute/balanced/memory ordering is).
	for _, w := range All() {
		if w.PaperMI == 0 {
			continue // x264 is not tabulated in the paper
		}
		m, err := execute(w, abi.Hybrid, 1)
		if err != nil {
			t.Fatal(err)
		}
		mi := metrics.Compute(&m.C).MemoryIntensity
		if diff := math.Abs(mi - w.PaperMI); diff > 0.30 {
			t.Errorf("%s: MI = %.3f, paper %.3f (|diff| %.2f > 0.30)", w.Name, mi, w.PaperMI, diff)
		}
	}
}

// overheads returns purecap/hybrid and benchmark/hybrid cycle ratios.
func overheads(t *testing.T, name string) (bench, pure float64) {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var cyc [3]float64
	for i, a := range abi.All() {
		m, err := execute(w, a, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, a, err)
		}
		cyc[i] = float64(m.Cycles())
	}
	return cyc[1] / cyc[0], cyc[2] / cyc[0]
}

func TestPointerIntensiveWorkloadsSlowUnderPurecap(t *testing.T) {
	// The paper's headline: memory/pointer-intensive workloads suffer the
	// largest purecap overheads (omnetpp +87 %, xalancbmk +103 %, sqlite
	// +61 %, quickjs +166 %).
	cases := map[string]float64{ // minimum expected purecap/hybrid
		"520.omnetpp_r":   1.5,
		"523.xalancbmk_r": 1.5,
		"sqlite":          1.3,
		"quickjs":         1.8,
	}
	for name, min := range cases {
		_, pure := overheads(t, name)
		if pure < min {
			t.Errorf("%s: purecap overhead %.3f < %.3f", name, pure, min)
		}
	}
}

func TestStreamingWorkloadsNearParity(t *testing.T) {
	// lbm and LLaMA.cpp see negligible overhead (paper: -8 % to +1.3 %).
	for _, name := range []string{"519.lbm_r", "llama-inference", "llama-matmul"} {
		_, pure := overheads(t, name)
		if pure > 1.06 || pure < 0.90 {
			t.Errorf("%s: purecap ratio %.3f, want ~1.0", name, pure)
		}
	}
}

func TestABIOrdering(t *testing.T) {
	// hybrid <= benchmark <= purecap for every workload with real
	// overhead: the benchmark ABI only removes costs relative to purecap.
	for _, name := range []string{"520.omnetpp_r", "523.xalancbmk_r", "541.leela_r", "sqlite", "quickjs", "531.deepsjeng_r"} {
		bench, pure := overheads(t, name)
		if bench > pure+0.005 {
			t.Errorf("%s: benchmark (%.3f) slower than purecap (%.3f)", name, bench, pure)
		}
		if bench < 0.99 {
			t.Errorf("%s: benchmark ABI faster than hybrid (%.3f)", name, bench)
		}
	}
}

func TestBenchmarkABIRecoversPCCOverhead(t *testing.T) {
	// §4.1: 60.3 points of xalancbmk's 103 % purecap overhead vanish under
	// the benchmark ABI. Require the recovery to be a substantial
	// fraction of the total overhead.
	bench, pure := overheads(t, "523.xalancbmk_r")
	recovered := (pure - bench) / (pure - 1)
	if recovered < 0.35 {
		t.Errorf("xalancbmk: benchmark ABI recovered only %.0f%% of overhead (bench %.3f pure %.3f)", recovered*100, bench, pure)
	}
}

func TestCapabilityDensityShape(t *testing.T) {
	// Table 3 shape: capability load density is near zero under hybrid and
	// jumps to tens of percent under purecap for pointer-rich workloads,
	// staying near zero for llama/lbm.
	high := []string{"520.omnetpp_r", "523.xalancbmk_r", "sqlite", "quickjs"}
	for _, name := range high {
		w, _ := ByName(name)
		m, err := execute(w, abi.Purecap, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := metrics.Compute(&m.C).CapLoadDensity
		if d < 0.30 {
			t.Errorf("%s: purecap capability load density %.2f, want > 0.30", name, d)
		}
	}
	for _, name := range []string{"519.lbm_r", "llama-matmul"} {
		w, _ := ByName(name)
		m, err := execute(w, abi.Purecap, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := metrics.Compute(&m.C).CapLoadDensity
		if d > 0.05 {
			t.Errorf("%s: purecap capability load density %.3f, want ~0", name, d)
		}
	}
}

func TestDPShareGrowsUnderPurecap(t *testing.T) {
	// Figure 5: the DP_SPEC share of the speculative mix grows under
	// purecap (paper: +5.21 to +29.31 percentage points) while LD/ST
	// shares stay comparatively stable.
	for _, name := range []string{"520.omnetpp_r", "sqlite", "quickjs", "541.leela_r"} {
		w, _ := ByName(name)
		share := func(a abi.ABI) (dp, ld float64) {
			m, err := execute(w, a, 1)
			if err != nil {
				t.Fatal(err)
			}
			tot := float64(m.C.Sum(pmu.SpecEvents...))
			return float64(m.C.Get(pmu.DP_SPEC)) / tot, float64(m.C.Get(pmu.LD_SPEC)) / tot
		}
		dpH, ldH := share(abi.Hybrid)
		dpP, ldP := share(abi.Purecap)
		growth := (dpP - dpH) * 100
		if growth < 3 || growth > 35 {
			t.Errorf("%s: DP share growth %.1f points, paper range ~5-30", name, growth)
		}
		if math.Abs(ldP-ldH)*100 > 12 {
			t.Errorf("%s: LD share moved %.1f points, want stable", name, (ldP-ldH)*100)
		}
	}
}

func TestBranchMRStableAcrossABIs(t *testing.T) {
	// §4.5: branch misprediction rates change little across ABIs.
	for _, name := range []string{"531.deepsjeng_r", "541.leela_r", "557.xz_r"} {
		w, _ := ByName(name)
		var mr [3]float64
		for i, a := range abi.All() {
			m, err := execute(w, a, 1)
			if err != nil {
				t.Fatal(err)
			}
			mr[i] = metrics.Compute(&m.C).BranchMR
		}
		if mr[0] == 0 {
			t.Fatalf("%s: no branches", name)
		}
		if rel := math.Abs(mr[2]-mr[0]) / mr[0]; rel > 0.5 {
			t.Errorf("%s: branch MR moved %.0f%% hybrid→purecap", name, rel*100)
		}
	}
}

func TestPurecapFootprintGrows(t *testing.T) {
	// §4.4: QuickJS's memory footprint grew ~36 % under purecap.
	w, _ := ByName("quickjs")
	hy, err := execute(w, abi.Hybrid, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := execute(w, abi.Purecap, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := float64(pc.Heap.Stats().BrkBytes) / float64(hy.Heap.Stats().BrkBytes)
	if g < 1.2 || g > 2.2 {
		t.Errorf("quickjs footprint growth = %.2fx, paper ~1.36x", g)
	}
}

func TestScaleMultipliesWork(t *testing.T) {
	w, _ := ByName("519.lbm_r")
	m1, err := execute(w, abi.Hybrid, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := execute(w, abi.Hybrid, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := float64(m2.C.Get(pmu.INST_RETIRED)) / float64(m1.C.Get(pmu.INST_RETIRED))
	if r < 1.5 || r > 2.5 {
		t.Errorf("scale 2 ran %.2fx the instructions", r)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	c := newRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSpeedVariantsDifferFromRateVariants(t *testing.T) {
	// The _s variants use different inputs (scale/parameters) than their
	// _r siblings, as SPEC speed vs rate do; their measurements must
	// differ while their character (MI class) matches.
	pairs := [][2]string{
		{"520.omnetpp_r", "620.omnetpp_s"},
		{"523.xalancbmk_r", "623.xalancbmk_s"},
		{"531.deepsjeng_r", "631.deepsjeng_s"},
		{"541.leela_r", "641.leela_s"},
		{"544.nab_r", "644.nab_s"},
		{"557.xz_r", "657.xz_s"},
		{"525.x264_r", "625.x264_s"},
	}
	for _, pair := range pairs {
		r, _ := ByName(pair[0])
		s, _ := ByName(pair[1])
		mr, err := execute(r, abi.Hybrid, 1)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := execute(s, abi.Hybrid, 1)
		if err != nil {
			t.Fatal(err)
		}
		if mr.C == ms.C {
			t.Errorf("%s and %s produced identical counters", pair[0], pair[1])
		}
		miR := metrics.Compute(&mr.C).MemoryIntensity
		miS := metrics.Compute(&ms.C).MemoryIntensity
		if metrics.ClassifyMI(miR) != metrics.ClassifyMI(miS) {
			t.Errorf("%s (%.3f) and %s (%.3f) classify differently", pair[0], miR, pair[1], miS)
		}
	}
}
