package soc

import (
	"errors"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/pmu"
	"cherisim/internal/workloads"
)

// runMesh co-runs specs on the fabric's default mesh for their core count,
// failing the test on a spec-validation error or a failed core.
func runMesh(t *testing.T, specs []CoreSpec) *TopoResult {
	t.Helper()
	res, err := RunTopology(Topology{Kind: TopoMesh, Cores: len(specs)}, specs)
	if err != nil {
		t.Fatalf("RunTopology: %v", err)
	}
	for i, r := range res.Cores {
		if r.Err != nil {
			t.Fatalf("core %d: %v", i, r.Err)
		}
	}
	return res
}

// streamBody builds a body that accesses random lines of its own buffer
// (an LCG walk, so LRU caches retain a proportional working-set share —
// cyclic streams would degenerate to 100 % misses at every level).
func streamBody(bufBytes uint64, accesses int) func(*core.Machine) {
	return func(m *core.Machine) {
		m.Func("stream", 1024, 64)
		buf := m.Alloc(bufBytes)
		lines := bufBytes / 64
		x := uint64(1)
		for i := 0; i < accesses; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			m.LoadDep(buf+core.Ptr((x%lines)*64), 8)
			m.ALU(2)
		}
	}
}

func TestLLCContentionSlowsCoRunners(t *testing.T) {
	// Solo on a 1-core fabric: a 1.5 MiB working set exceeds the private
	// 1 MiB L2, so ~0.5 MiB of each pass is served by the one 1 MiB slice,
	// which holds it comfortably.
	solo := runMesh(t, topoSpecs(1, streamBody(1536<<10, 60000)))
	soloCycles := solo.Cores[0].Machine.Cycles()

	// Four of them on the quad-core 2x2 mesh: the combined L2 spill
	// (4 x ~0.5 MiB) thrashes the four 256 KiB slices of the 1 MiB LLC;
	// each core must slow down.
	co := runMesh(t, topoSpecs(4, streamBody(1536<<10, 60000)))
	for i, r := range co.Cores {
		ratio := float64(r.Machine.Cycles()) / float64(soloCycles)
		if ratio < 1.02 {
			t.Errorf("core %d: co-run/solo = %.3f, want visible LLC contention", i, ratio)
		}
	}
}

func TestAddressSpacesIsolated(t *testing.T) {
	// Cores touching the same virtual addresses must not alias in the
	// shared slices (distinct salts = distinct physical mappings): two
	// cores running one body fill exactly twice the lines one core fills
	// alone.
	body := func(m *core.Machine) {
		m.Func("w", 512, 64)
		p := m.Alloc(4096)
		m.Store(p, 42, 8)
		if v := m.Load(p, 8); v != 42 {
			panic("corrupted")
		}
	}
	refills := func(cores int) uint64 {
		var n uint64
		for _, s := range runMesh(t, topoSpecs(cores, body)).Fabric.Slices {
			n += s.Refills
		}
		return n
	}
	solo, co := refills(1), refills(2)
	if solo == 0 || co != 2*solo {
		t.Fatalf("two cores filled %d slice lines, want twice the %d one core fills", co, solo)
	}
}

func TestCoRunRealWorkloads(t *testing.T) {
	omnet, err := workloads.ByName("520.omnetpp_r")
	if err != nil {
		t.Fatal(err)
	}
	llama, err := workloads.ByName("llama-matmul")
	if err != nil {
		t.Fatal(err)
	}
	res := runMesh(t, []CoreSpec{
		{Config: core.DefaultConfig(abi.Purecap), Body: func(m *core.Machine) { omnet.Run(m, 1) }},
		{Config: core.DefaultConfig(abi.Purecap), Body: func(m *core.Machine) { llama.Run(m, 1) }},
	})
	for i, r := range res.Cores {
		if r.Machine.C.Get(pmu.INST_RETIRED) == 0 {
			t.Errorf("core %d did no work", i)
		}
	}
}

// TestRunRejectsDivergentLLCGeometry is the regression test for the
// specs[0]-only LLC construction bug: heterogeneous co-run specs used to
// silently get core 0's geometry. Every disagreement — size, ways, line
// size, hit latency — must now be rejected with a structured
// *GeometryError naming the divergent core, before anything executes.
func TestRunRejectsDivergentLLCGeometry(t *testing.T) {
	body := streamBody(64<<10, 100)
	cases := []struct {
		name     string
		mutate   func(*CoreSpec)
		wantCore int
	}{
		{name: "size", mutate: func(s *CoreSpec) { s.Config.LLC.SizeBytes *= 2 }, wantCore: 1},
		{name: "ways", mutate: func(s *CoreSpec) { s.Config.LLC.Ways = 8 }, wantCore: 1},
		{name: "line size", mutate: func(s *CoreSpec) { s.Config.LLC.LineSize = 128 }, wantCore: 1},
		{name: "hit latency", mutate: func(s *CoreSpec) { s.Config.LLC.HitLatency = 99 }, wantCore: 1},
		{name: "last core", mutate: nil, wantCore: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := topoSpecs(4, body)
			if tc.mutate != nil {
				tc.mutate(&specs[1])
			} else {
				specs[3].Config.LLC.SizeBytes /= 2
			}
			_, err := RunTopology(Topology{Kind: TopoMesh, Cores: 4}, specs)
			var ge *GeometryError
			if !errors.As(err, &ge) {
				t.Fatalf("divergent LLC geometry accepted (err = %v)", err)
			}
			if ge.Core != tc.wantCore {
				t.Fatalf("error blames core %d, want %d", ge.Core, tc.wantCore)
			}
		})
	}

	// Agreeing specs still run: ablated geometry is fine when shared by all.
	specs := topoSpecs(2, body)
	for i := range specs {
		specs[i].Config.LLC.SizeBytes = 512 << 10
	}
	runMesh(t, specs)
}
