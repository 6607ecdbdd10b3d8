package soc

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/cache"
	"cherisim/internal/core"
	"cherisim/internal/pmu"
)

func topoSpecs(n int, body func(*core.Machine)) []CoreSpec {
	specs := make([]CoreSpec, n)
	for i := range specs {
		specs[i] = CoreSpec{Config: core.DefaultConfig(abi.Hybrid), Body: body}
	}
	return specs
}

func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
	}{
		{"unknown kind", Topology{Kind: "torus", Cores: 4}},
		{"zero cores", Topology{Kind: TopoMesh, Cores: 0}},
		{"negative cores", Topology{Kind: TopoMesh, Cores: -2}},
		{"too many cores", Topology{Kind: TopoMesh, Cores: MaxCores + 1}},
		{"non-power-of-two slices", Topology{Kind: TopoMesh, Cores: 8, Slices: 3}},
		{"slices exceed nodes", Topology{Kind: TopoRing, Cores: 4, Slices: 8}},
		{"zero slice capacity", Topology{Kind: TopoMesh, Cores: 4, SliceCapacity: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo.WithDefaults()
			if tc.topo.Cores < 1 {
				// WithDefaults derives Slices from Cores; keep the invalid
				// core count the thing under test.
				topo.Slices = 1
			}
			var te *TopologyError
			if err := topo.Validate(); !errors.As(err, &te) {
				t.Fatalf("Validate() = %v, want *TopologyError", err)
			}
			// The run entry point must reject it too.
			if _, err := RunTopology(tc.topo, topoSpecs(max(tc.topo.Cores, 0), func(m *core.Machine) {})); err == nil {
				t.Fatal("RunTopology accepted an invalid topology")
			}
		})
	}

	if _, err := ParseTopologyKind(" MESH "); err != nil {
		t.Fatalf("kind parsing is not case/space tolerant: %v", err)
	}
}

func TestTopologySpecMismatchRejected(t *testing.T) {
	topo := Topology{Kind: TopoMesh, Cores: 4}
	var te *TopologyError
	if _, err := RunTopology(topo, topoSpecs(3, func(m *core.Machine) {})); !errors.As(err, &te) {
		t.Fatalf("3 specs on a 4-core fabric: %v, want *TopologyError", err)
	}
	// A topology without a core count is not sized from the spec list: the
	// slice count would be derived from 0 cores and build a 1-slice fabric.
	if _, err := RunTopology(Topology{Kind: TopoMesh}, topoSpecs(4, func(m *core.Machine) {})); !errors.As(err, &te) {
		t.Fatalf("4 specs on a 0-core fabric: %v, want *TopologyError", err)
	}
}

func TestSliceCacheConfigRejectsUnevenSplit(t *testing.T) {
	// A 48 KiB base LLC over 4 slices leaves 12 sets per slice — not a
	// power of two, which cache.New would panic on. The split must be
	// rejected up front with a structured error instead.
	base := cache.Config{Name: "LLC", SizeBytes: 48 << 10, LineSize: 64, Ways: 16, HitLatency: 30}
	topo := Topology{Kind: TopoMesh, Cores: 4}.WithDefaults()
	if _, err := topo.SliceCacheConfig(base); err == nil {
		t.Fatal("uneven slice split accepted")
	}
	specs := topoSpecs(4, func(m *core.Machine) {})
	for i := range specs {
		specs[i].Config.LLC = base
	}
	var te *TopologyError
	if _, err := RunTopology(Topology{Kind: TopoMesh, Cores: 4}, specs); !errors.As(err, &te) {
		t.Fatalf("RunTopology with uneven slice split: %v, want *TopologyError", err)
	}
}

func TestMeshRoutingXY(t *testing.T) {
	// 16 cores on a 4x4 mesh, 16 slices, one per node.
	topo := Topology{Kind: TopoMesh, Cores: 16, Slices: 16}.WithDefaults()
	g := compile(topo)
	if g.w != 4 || g.h != 4 {
		t.Fatalf("grid %dx%d, want 4x4", g.w, g.h)
	}
	hops := func(c, s int) int { return len(g.routes[c*topo.Slices+s]) }
	// Manhattan distances: node 0 (0,0) to node 15 (3,3) is 6 hops;
	// same node is 0; adjacent is 1.
	if h := hops(0, 15); h != 6 {
		t.Fatalf("corner-to-corner = %d hops, want 6", h)
	}
	if h := hops(5, 5); h != 0 {
		t.Fatalf("self route = %d hops, want 0", h)
	}
	if h := hops(0, 1); h != 1 {
		t.Fatalf("adjacent = %d hops, want 1", h)
	}
	// XY routing goes x first: 0 -> 6 (node (2,1)) starts with the
	// 0->1 link, not the 0->4 link.
	r := g.routes[0*topo.Slices+6]
	if len(r) != 3 {
		t.Fatalf("0->6 = %d hops, want 3", len(r))
	}
	if first := g.links[r[0]]; first != (linkEnd{From: 0, To: 1}) {
		t.Fatalf("0->6 starts with %+v, want the +x link 0->1", first)
	}
}

func TestRingRoutingShortestDirection(t *testing.T) {
	topo := Topology{Kind: TopoRing, Cores: 8, Slices: 8}.WithDefaults()
	g := compile(topo)
	hops := func(c, s int) int { return len(g.routes[c*topo.Slices+s]) }
	if h := hops(0, 3); h != 3 {
		t.Fatalf("0->3 = %d hops, want 3 (clockwise)", h)
	}
	if h := hops(0, 6); h != 2 {
		t.Fatalf("0->6 = %d hops, want 2 (counter-clockwise)", h)
	}
	// Distance 4 is a tie on an 8-ring; it must resolve clockwise.
	r := g.routes[0*topo.Slices+4]
	if len(r) != 4 {
		t.Fatalf("0->4 = %d hops, want 4", len(r))
	}
	if first := g.links[r[0]]; first != (linkEnd{From: 0, To: 1}) {
		t.Fatalf("tie resolved via %+v, want clockwise 0->1", first)
	}
}

// topoFingerprint flattens everything observable about a topology co-run:
// every core's full PMU counter file plus the fabric accounting.
func topoFingerprint(res *TopoResult) string {
	s := ""
	for i, r := range res.Cores {
		s += fmt.Sprintf("core%d %v err=%v\n", i, r.Machine.C, r.Err)
	}
	s += fmt.Sprintf("%+v", *res.Fabric)
	return s
}

// TestTopologyRunDeterministicAcrossGOMAXPROCS is the tentpole's
// determinism gate: the same co-run must produce byte-identical results —
// every counter of every core and the whole fabric accounting — for any
// worker parallelism, including two cold invocations at the same setting.
func TestTopologyRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() *TopoResult {
		specs := topoSpecs(8, streamBody(384<<10, 8000))
		res, err := RunTopology(Topology{Kind: TopoMesh, Cores: 8}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var base string
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		a, b := topoFingerprint(run()), topoFingerprint(run())
		if a != b {
			t.Fatalf("GOMAXPROCS=%d: two cold invocations diverge", procs)
		}
		if base == "" {
			base = a
		} else if a != base {
			t.Fatalf("GOMAXPROCS=%d diverges from GOMAXPROCS=1", procs)
		}
	}
}

// TestTopologyRun64CoreMesh exercises the tentpole at scale — this is the
// co-run the CI race step runs under -race: 64 concurrently executing
// cores against 64 slices, with full reconciliation of the fabric's
// accounting against every core's PMU counter file.
func TestTopologyRun64CoreMesh(t *testing.T) {
	n := 64
	specs := topoSpecs(n, streamBody(96<<10, 3000))
	res, err := RunTopology(Topology{Kind: TopoMesh, Cores: n}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Cores); got != n {
		t.Fatalf("%d core results, want %d", got, n)
	}
	for i, r := range res.Cores {
		if r.Err != nil {
			t.Fatalf("core %d: %v", i, r.Err)
		}
		if r.Machine.C.Get(pmu.INST_RETIRED) == 0 {
			t.Fatalf("core %d did no work", i)
		}
	}
	fab := res.Fabric
	if fab.Topology.Slices != 64 || len(fab.Slices) != 64 {
		t.Fatalf("fabric has %d slices, want 64", len(fab.Slices))
	}
	if err := fab.Reconcile(); err != nil {
		t.Fatal(err)
	}
	sliceAcc, coreAcc, linkTrav, coreHops := fab.Totals()
	if sliceAcc == 0 || linkTrav == 0 {
		t.Fatalf("no fabric traffic recorded (accesses=%d traversals=%d)", sliceAcc, linkTrav)
	}
	if sliceAcc != coreAcc || linkTrav != coreHops {
		t.Fatalf("totals disagree: slices %d vs cores %d, links %d vs hops %d",
			sliceAcc, coreAcc, linkTrav, coreHops)
	}
	// Port stats against PMU: both sides count the same post-L2 stream.
	for i, r := range res.Cores {
		p := fab.Cores[i]
		if rd := r.Machine.C.Get(pmu.LL_CACHE_RD); rd != p.Reads {
			t.Fatalf("core %d: port reads %d vs LL_CACHE_RD %d", i, p.Reads, rd)
		}
		if ms := r.Machine.C.Get(pmu.LL_CACHE_MISS_RD); ms != p.ReadMisses {
			t.Fatalf("core %d: port read misses %d vs LL_CACHE_MISS_RD %d", i, p.ReadMisses, ms)
		}
	}
}

// spinBody executes three quanta of single ALU µops and counts itself in
// active while it runs between yields; peak records the most cores counted
// at once. Yields fall on every QuantumUops-th µop, inside the scheduler's
// hook, so the body steps out of the count for that µop.
func spinBody(active, peak *atomic.Int32) func(*core.Machine) {
	return func(m *core.Machine) {
		enter := func() {
			n := active.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched() // give an unbounded scheduler the chance to start another core
		}
		m.Func("spin", 256, 32)
		enter()
		for u := 1; u <= 3*QuantumUops; u++ {
			if u%QuantumUops == 0 {
				active.Add(-1)
				m.ALU(1)
				enter()
			} else {
				m.ALU(1)
			}
		}
		active.Add(-1)
	}
}

// TestTopologyWorkerBound: a co-run never executes more cores at once
// than its worker bound, even when the host could run more, and the bound
// never changes results.
func TestTopologyWorkerBound(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	var base string
	for _, bound := range []int{1, 2, 16} {
		var active, peak atomic.Int32
		specs := topoSpecs(16, spinBody(&active, &peak))
		res, err := RunTopologyObserved(Topology{Kind: TopoMesh, Cores: 16}, specs, bound, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res.Cores {
			if r.Err != nil {
				t.Fatalf("bound %d: core %d: %v", bound, i, r.Err)
			}
		}
		if p := int(peak.Load()); p > bound {
			t.Fatalf("bound %d: %d cores executed at once", bound, p)
		}
		fp := topoFingerprint(res)
		if base == "" {
			base = fp
		} else if fp != base {
			t.Fatalf("bound %d diverges from bound 1", bound)
		}
	}
}

func TestTopologyPanicContainedMidEpoch(t *testing.T) {
	// Core 0 yields at least one full quantum (so the fabric has woven its
	// traffic) and then panics mid-epoch. The barrier must not deadlock,
	// the panic surfaces as a structured error, the healthy cores finish,
	// and the fabric still reconciles — the dead core's buffered events
	// are woven, not dropped.
	specs := topoSpecs(4, streamBody(128<<10, 6000))
	specs[0].Body = func(m *core.Machine) {
		streamBody(128<<10, 3*QuantumUops/4)(m) // > 1 quantum of µops
		panic("topo boom")
	}
	res, err := RunTopology(Topology{Kind: TopoMesh, Cores: 4}, specs)
	if err != nil {
		t.Fatal(err)
	}
	var pe *core.PanicError
	if !errors.As(res.Cores[0].Err, &pe) || pe.Value != "topo boom" {
		t.Fatalf("core 0: want contained *core.PanicError, got %v", res.Cores[0].Err)
	}
	for i := 1; i < 4; i++ {
		if res.Cores[i].Err != nil {
			t.Fatalf("healthy core %d failed: %v", i, res.Cores[i].Err)
		}
		if res.Cores[i].Machine.C.Get(pmu.INST_RETIRED) == 0 {
			t.Fatalf("healthy core %d did no work", i)
		}
	}
	if err := res.Fabric.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyZeroUopBody(t *testing.T) {
	// A body that schedules nothing finishes on its first resume; the
	// co-run with a working neighbour must terminate and account sanely.
	specs := []CoreSpec{
		{Config: core.DefaultConfig(abi.Hybrid), Body: func(m *core.Machine) {}},
		{Config: core.DefaultConfig(abi.Hybrid), Body: streamBody(64<<10, 2000)},
	}
	res, err := RunTopology(Topology{Kind: TopoRing, Cores: 2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores[0].Err != nil || res.Cores[1].Err != nil {
		t.Fatalf("errs: %v / %v", res.Cores[0].Err, res.Cores[1].Err)
	}
	if res.Cores[0].Machine.Uops() != 0 {
		t.Fatalf("empty body executed %d uops", res.Cores[0].Machine.Uops())
	}
	if res.Cores[1].Machine.C.Get(pmu.INST_RETIRED) == 0 {
		t.Fatal("working core did no work")
	}
	if err := res.Fabric.Reconcile(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyContentionChargesStall(t *testing.T) {
	// A tiny slice capacity forces per-epoch overflow; the charged stall
	// must show up in both the fabric's slice counters and the cores'
	// port stats, and slow the co-run down against an uncontended fabric.
	body := streamBody(512<<10, 20000)
	topoFree := Topology{Kind: TopoMesh, Cores: 4}
	topoTight := Topology{Kind: TopoMesh, Cores: 4, SliceCapacity: 8, LinkCapacity: 8}
	free, err := RunTopology(topoFree, topoSpecs(4, body))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunTopology(topoTight, topoSpecs(4, body))
	if err != nil {
		t.Fatal(err)
	}
	var cont, stall float64
	for i := range tight.Fabric.Slices {
		cont += float64(tight.Fabric.Slices[i].ContentionCycles)
	}
	for i := range tight.Fabric.Cores {
		stall += tight.Fabric.Cores[i].StallCycles
	}
	if cont == 0 || stall == 0 {
		t.Fatalf("no contention recorded (slice=%g stall=%g)", cont, stall)
	}
	for i := range tight.Cores {
		if tc, fc := tight.Cores[i].Machine.Cycles(), free.Cores[i].Machine.Cycles(); tc <= fc {
			t.Fatalf("core %d: contended run (%d cycles) not slower than free run (%d)", i, tc, fc)
		}
	}
}

// TestTopologyParallelSpeedup demonstrates the point of the parallel bound
// phase: with enough real CPUs the same deterministic co-run completes
// faster at high GOMAXPROCS than serialized onto one. Skipped where the
// host can't show it.
func TestTopologyParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skip("needs >= 4 CPUs to demonstrate a speedup")
	}
	specs := func() []CoreSpec { return topoSpecs(16, streamBody(512<<10, 120000)) }
	topo := Topology{Kind: TopoMesh, Cores: 16}
	timeRun := func(procs int) (time.Duration, *TopoResult) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		start := time.Now()
		res, err := RunTopology(topo, specs())
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), res
	}
	timeRun(1) // warm code paths and allocator before measuring
	serial, resSerial := timeRun(1)
	par, resPar := timeRun(min(16, runtime.NumCPU()))
	if a, b := topoFingerprint(resSerial), topoFingerprint(resPar); a != b {
		t.Fatal("serial and parallel runs diverge")
	}
	t.Logf("serial %v, parallel %v (%.2fx)", serial, par, float64(serial)/float64(par))
	if par >= serial {
		t.Fatalf("parallel (%v) not faster than serial (%v)", par, serial)
	}
}

func TestFabricStatsSnapshotIndependent(t *testing.T) {
	// stats() must snapshot, not alias: two calls return equal values.
	specs := topoSpecs(2, streamBody(64<<10, 2000))
	res, err := RunTopology(Topology{Kind: TopoRing, Cores: 2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	other, err := RunTopology(Topology{Kind: TopoRing, Cores: 2}, topoSpecs(2, streamBody(64<<10, 2000)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Fabric, other.Fabric) {
		t.Fatal("identical co-runs produced different fabric stats")
	}
}

func BenchmarkTopologyCoRun16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := RunTopology(Topology{Kind: TopoMesh, Cores: 16}, topoSpecs(16, streamBody(256<<10, 20000)))
		if err != nil {
			b.Fatal(err)
		}
	}
}
