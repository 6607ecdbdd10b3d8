package core

import (
	"errors"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/cap"
	"cherisim/internal/pmu"
)

func TestLayoutPerABI(t *testing.T) {
	hy := New(abi.Hybrid)
	pc := New(abi.Purecap)
	// A list node: { next *T, prev *T, key u64, pad u32 }.
	lh := hy.Layout(FieldPtr, FieldPtr, FieldU64, FieldU32)
	lp := pc.Layout(FieldPtr, FieldPtr, FieldU64, FieldU32)
	if lh.Size() != 32 {
		t.Errorf("hybrid node = %d bytes, want 32", lh.Size())
	}
	if lp.Size() != 48 {
		t.Errorf("purecap node = %d bytes, want 48", lp.Size())
	}
	if lh.Offset(2) != 16 || lp.Offset(2) != 32 {
		t.Errorf("key offsets: hybrid %d purecap %d", lh.Offset(2), lp.Offset(2))
	}
}

func TestLayoutAlignment(t *testing.T) {
	pc := New(abi.Purecap)
	// { u8, ptr } must align the pointer to 16 under purecap.
	l := pc.Layout(FieldU8, FieldPtr)
	if l.Offset(1) != 16 {
		t.Errorf("pointer offset = %d, want 16", l.Offset(1))
	}
	if l.Size() != 32 {
		t.Errorf("size = %d, want 32", l.Size())
	}
}

func TestPtrRoundTripAllABIs(t *testing.T) {
	for _, a := range abi.All() {
		m := New(a)
		m.Func("main", 256, 32)
		err := m.Run(func(m *Machine) {
			node := m.Alloc(64)
			target := m.Alloc(128)
			m.StorePtr(node, target)
			got := m.LoadPtr(node)
			if got != target {
				t.Errorf("abi %v: pointer round trip %#x != %#x", a, got, target)
			}
		})
		if err != nil {
			t.Fatalf("abi %v: %v", a, err)
		}
	}
}

func TestDataRoundTrip(t *testing.T) {
	m := New(abi.Purecap)
	m.Func("main", 256, 32)
	err := m.Run(func(m *Machine) {
		p := m.Alloc(64)
		m.Store(p, 0xdeadbeef, 8)
		if v := m.Load(p, 8); v != 0xdeadbeef {
			t.Errorf("load = %#x", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagStrippedByDataStore(t *testing.T) {
	m := New(abi.Purecap)
	m.Func("main", 256, 32)
	err := m.Run(func(m *Machine) {
		slot := m.Alloc(64)
		target := m.Alloc(64)
		m.StorePtr(slot, target)
		// Overwrite part of the capability with plain data.
		m.Store(slot, 0x41414141, 4)
		m.LoadPtrChecked(slot) // must fault: tag gone
	})
	if err == nil {
		t.Fatal("dereferencing clobbered capability did not fault")
	}
	if !errors.Is(err, cap.ErrTagViolation) {
		t.Fatalf("fault class = %v, want tag violation", err)
	}
}

func TestHybridHasNoTagProtection(t *testing.T) {
	m := New(abi.Hybrid)
	m.Func("main", 256, 32)
	err := m.Run(func(m *Machine) {
		slot := m.Alloc(64)
		target := m.Alloc(64)
		m.StorePtr(slot, target)
		m.Store(slot, 0x41414141, 4)
		// Hybrid happily loads the corrupted pointer.
		got := m.LoadPtrChecked(slot)
		if got == target {
			t.Error("corruption had no effect?")
		}
	})
	if err != nil {
		t.Fatalf("hybrid faulted: %v", err)
	}
}

func TestOutOfBoundsAccessFaultsUnderPurecap(t *testing.T) {
	m := New(abi.Purecap)
	m.Func("main", 256, 32)
	err := m.Run(func(m *Machine) {
		p := m.Alloc(64)
		m.Load(p+100000, 8) // far outside any allocation
	})
	if err == nil {
		t.Fatal("wild access did not fault under purecap")
	}
	if !errors.Is(err, cap.ErrBoundsViolation) {
		t.Fatalf("fault class = %v, want bounds violation", err)
	}
}

func TestOutOfBoundsAllowedUnderHybrid(t *testing.T) {
	m := New(abi.Hybrid)
	m.Func("main", 256, 32)
	err := m.Run(func(m *Machine) {
		p := m.Alloc(64)
		m.Load(p+100000, 8) // spatial bug, silently permitted by AArch64
	})
	if err != nil {
		t.Fatalf("hybrid faulted on OOB: %v", err)
	}
}

func TestDoubleFreeFaults(t *testing.T) {
	m := New(abi.Purecap)
	m.Func("main", 256, 32)
	err := m.Run(func(m *Machine) {
		p := m.Alloc(64)
		m.Free(p)
		m.Free(p)
	})
	if err == nil {
		t.Fatal("double free did not fault")
	}
}

func TestCapCountersZeroUnderHybrid(t *testing.T) {
	m := New(abi.Hybrid)
	m.Func("main", 256, 32)
	_ = m.Run(func(m *Machine) {
		for i := 0; i < 100; i++ {
			slot := m.Alloc(64)
			m.StorePtr(slot, slot)
			m.LoadPtr(slot)
		}
	})
	if m.C.Get(pmu.CAP_MEM_ACCESS_RD) != 0 || m.C.Get(pmu.CAP_MEM_ACCESS_WR) != 0 {
		t.Error("hybrid produced capability memory events")
	}
	if m.C.Get(pmu.MEM_ACCESS_RD_CTAG) != 0 {
		t.Error("hybrid produced tag-check events")
	}
}

func TestCapCountersNonzeroUnderPurecap(t *testing.T) {
	m := New(abi.Purecap)
	m.Func("main", 256, 32)
	_ = m.Run(func(m *Machine) {
		for i := 0; i < 100; i++ {
			slot := m.Alloc(64)
			m.StorePtr(slot, slot)
			m.LoadPtr(slot)
		}
	})
	if m.C.Get(pmu.CAP_MEM_ACCESS_RD) < 100 || m.C.Get(pmu.CAP_MEM_ACCESS_WR) < 100 {
		t.Errorf("purecap cap events rd=%d wr=%d", m.C.Get(pmu.CAP_MEM_ACCESS_RD), m.C.Get(pmu.CAP_MEM_ACCESS_WR))
	}
}

// pccWorkload makes many cross-DSO and virtual calls.
func pccWorkload(m *Machine) {
	lib := m.Func("libfn", 512, 64)
	vfn := m.Func("virtual", 512, 64)
	for i := 0; i < 2000; i++ {
		m.Call(lib, true)
		m.Return()
		m.CallVirtual(vfn)
		m.Return()
	}
}

func TestPCCStallsOnlyInPurecap(t *testing.T) {
	stalls := map[abi.ABI]uint64{}
	for _, a := range abi.All() {
		m := New(a)
		m.Func("main", 256, 32)
		if err := m.Run(pccWorkload); err != nil {
			t.Fatal(err)
		}
		stalls[a] = m.C.Get(pmu.PCC_STALL_CYCLES)
	}
	if stalls[abi.Purecap] == 0 {
		t.Error("purecap produced no PCC stalls")
	}
	if stalls[abi.Hybrid] != 0 || stalls[abi.Benchmark] != 0 {
		t.Errorf("hybrid/benchmark produced PCC stalls: %v", stalls)
	}
}

func TestCapabilityAwarePredictorRemovesPCCStalls(t *testing.T) {
	cfg := DefaultConfig(abi.Purecap)
	cfg.TracksPCCBounds = true
	m := NewMachine(cfg)
	m.Func("main", 256, 32)
	if err := m.Run(pccWorkload); err != nil {
		t.Fatal(err)
	}
	if got := m.C.Get(pmu.PCC_STALL_CYCLES); got != 0 {
		t.Errorf("capability-aware predictor still stalled %d cycles", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() pmu.Counters {
		m := New(abi.Purecap)
		main := m.Func("main", 1024, 64)
		_ = main
		err := m.Run(func(m *Machine) {
			l := m.Layout(FieldPtr, FieldU64)
			var head Ptr
			for i := 0; i < 500; i++ {
				n := m.AllocRecord(l)
				m.StorePtr(l.Field(n, 0), head)
				m.Store(l.Field(n, 1), uint64(i), 8)
				head = n
			}
			for p := head; p != 0; {
				m.ALU(2)
				m.Branch(true)
				p = m.LoadPtr(p)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.C
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("two identical runs produced different counters")
	}
}

func TestCycleIdentity(t *testing.T) {
	m := New(abi.Purecap)
	m.Func("main", 2048, 64)
	_ = m.Run(func(m *Machine) {
		arr := m.Alloc(1 << 20)
		for i := uint64(0); i < 1<<14; i++ {
			m.Load(arr+Ptr(i*64), 8)
			m.ALU(3)
			m.Branch(i%7 == 0)
		}
	})
	cycles := m.C.Get(pmu.CPU_CYCLES)
	fe := m.C.Get(pmu.STALL_FRONTEND)
	be := m.C.Get(pmu.STALL_BACKEND)
	if fe+be > cycles {
		t.Errorf("stalls (%d+%d) exceed cycles (%d)", fe, be, cycles)
	}
	// Backend splits must sum to the backend total (within rounding).
	mem := m.C.Get(pmu.STALL_BACKEND_MEM)
	core := m.C.Get(pmu.STALL_BACKEND_CORE)
	if diff := int64(be) - int64(mem+core); diff < -2 || diff > 2 {
		t.Errorf("backend %d != mem %d + core %d", be, mem, core)
	}
	l1 := m.C.Get(pmu.STALL_BACKEND_MEM_L1D)
	l2 := m.C.Get(pmu.STALL_BACKEND_MEM_L2D)
	ext := m.C.Get(pmu.STALL_BACKEND_MEM_EXT)
	if diff := int64(mem) - int64(l1+l2+ext); diff < -3 || diff > 3 {
		t.Errorf("mem %d != l1 %d + l2 %d + ext %d", mem, l1, l2, ext)
	}
}

func TestPointerChasingSlowerUnderPurecap(t *testing.T) {
	// The paper's core finding: pointer-intensive workloads slow down under
	// purecap because 16-byte pointers halve the cache-resident node count.
	run := func(a abi.ABI) float64 {
		m := New(a)
		m.Func("main", 1024, 64)
		err := m.Run(func(m *Machine) {
			l := m.Layout(FieldPtr, FieldPtr, FieldU64, FieldU64)
			const nodes = 20000
			ptrs := make([]Ptr, nodes)
			for i := range ptrs {
				ptrs[i] = m.AllocRecord(l)
			}
			// Shuffled singly-linked chain (deterministic LCG).
			seed := uint64(12345)
			perm := make([]int, nodes)
			for i := range perm {
				perm[i] = i
			}
			for i := nodes - 1; i > 0; i-- {
				seed = seed*6364136223846793005 + 1442695040888963407
				j := int(seed % uint64(i+1))
				perm[i], perm[j] = perm[j], perm[i]
			}
			for i := 0; i < nodes-1; i++ {
				m.StorePtr(l.Field(ptrs[perm[i]], 0), ptrs[perm[i+1]])
			}
			m.StorePtr(l.Field(ptrs[perm[nodes-1]], 0), 0)
			for pass := 0; pass < 5; pass++ {
				p := ptrs[perm[0]]
				for p != 0 {
					p = m.LoadPtr(l.Field(p, 0))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(m.Cycles())
	}
	hy := run(abi.Hybrid)
	pc := run(abi.Purecap)
	if pc <= hy*1.05 {
		t.Errorf("pointer chase purecap/hybrid = %.3f, want > 1.05", pc/hy)
	}
}

func TestStreamingNearParity(t *testing.T) {
	// Streaming FP kernels (lbm, matmul) should see little purecap penalty.
	run := func(a abi.ABI) float64 {
		m := New(a)
		m.Func("main", 1024, 64)
		err := m.Run(func(m *Machine) {
			arr := m.Alloc(4 << 20)
			for pass := 0; pass < 2; pass++ {
				for off := uint64(0); off < 4<<20; off += 64 {
					m.Load(arr+Ptr(off), 8)
					m.FP(4)
					m.Store(arr+Ptr(off), 1, 8)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(m.Cycles())
	}
	hy := run(abi.Hybrid)
	pc := run(abi.Purecap)
	ratio := pc / hy
	if ratio > 1.10 || ratio < 0.90 {
		t.Errorf("streaming purecap/hybrid = %.3f, want ~1.0", ratio)
	}
}

func TestCallReturnNesting(t *testing.T) {
	m := New(abi.Purecap)
	m.Func("main", 512, 64)
	f1 := m.Func("f1", 512, 64)
	f2 := m.Func("f2", 512, 64)
	err := m.Run(func(m *Machine) {
		for i := 0; i < 100; i++ {
			m.Call(f1, false)
			m.Call(f2, false)
			m.ALU(5)
			m.Return()
			m.Return()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.stack) != 0 {
		t.Errorf("call stack not balanced: %d frames", len(m.stack))
	}
	if m.sp != StackBase {
		t.Errorf("sp not restored: %#x", m.sp)
	}
}

func TestBranchCountersFlow(t *testing.T) {
	m := New(abi.Hybrid)
	m.Func("main", 512, 64)
	_ = m.Run(func(m *Machine) {
		for i := 0; i < 1000; i++ {
			m.Branch(i%3 == 0)
		}
	})
	if m.C.Get(pmu.BR_RETIRED) != 1000 {
		t.Errorf("BR_RETIRED = %d", m.C.Get(pmu.BR_RETIRED))
	}
	if m.C.Get(pmu.BR_MIS_PRED_RETIRED) == 0 {
		t.Error("no mispredicts on i%3 pattern start")
	}
	if m.C.Get(pmu.BR_IMMED_SPEC) != 1000 {
		t.Errorf("BR_IMMED_SPEC = %d", m.C.Get(pmu.BR_IMMED_SPEC))
	}
}

func TestSecondsAndIPC(t *testing.T) {
	m := New(abi.Hybrid)
	m.Func("main", 512, 64)
	_ = m.Run(func(m *Machine) { m.ALU(10000) })
	if m.Seconds() <= 0 {
		t.Error("no simulated time elapsed")
	}
	if ipc := m.IPC(); ipc <= 0 || ipc > float64(m.Cfg.Width) {
		t.Errorf("IPC = %f out of range", ipc)
	}
}

func TestFnSentrySealed(t *testing.T) {
	m := New(abi.Purecap)
	f := m.Func("fn", 256, 32)
	if !f.Sentry.Valid() || f.Sentry.OType() != cap.OTypeSentry {
		t.Errorf("function sentry malformed: %v", f.Sentry)
	}
	hy := New(abi.Hybrid)
	fh := hy.Func("fn", 256, 32)
	if fh.Sentry.Valid() {
		t.Error("hybrid function has a sentry capability")
	}
}

func TestFootprintLargerUnderPurecap(t *testing.T) {
	build := func(a abi.ABI) uint64 {
		m := New(a)
		m.Func("main", 256, 32)
		_ = m.Run(func(m *Machine) {
			l := m.Layout(FieldPtr, FieldPtr, FieldPtr, FieldU64)
			for i := 0; i < 10000; i++ {
				m.AllocRecord(l)
			}
		})
		return m.Heap.Stats().BrkBytes
	}
	hy, pc := build(abi.Hybrid), build(abi.Purecap)
	if float64(pc) < float64(hy)*1.4 {
		t.Errorf("purecap heap %d not substantially larger than hybrid %d", pc, hy)
	}
}

// TestLoadStoreAllocationFree guards the simulated memory path (bounds
// check, TLB, three cache levels, tag memory) against heap allocation:
// one 8-byte Store and Load at a 64-byte stride must allocate nothing on
// any ABI. BenchmarkMachineLoadStore times the same loop.
func TestLoadStoreAllocationFree(t *testing.T) {
	for _, a := range abi.All() {
		m := New(a)
		m.Func("main", 512, 64)
		var allocs float64
		err := m.Run(func(m *Machine) {
			p := m.Alloc(1 << 20)
			i := 0
			allocs = testing.AllocsPerRun(1000, func() {
				off := Ptr(uint64(i*64) % (1 << 20))
				m.Store(p+off, uint64(i), 8)
				m.Load(p+off, 8)
				i++
			})
		})
		if err != nil {
			t.Fatalf("abi %v: %v", a, err)
		}
		if allocs != 0 {
			t.Errorf("abi %v: one Store+Load allocates %.2f objects, want 0", a, allocs)
		}
	}
}
