package core

import (
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/pmu"
)

func TestProfileAttribution(t *testing.T) {
	m := New(abi.Hybrid)
	m.EnableProfile()
	m.Func("main", 512, 64)
	hot := m.Func("hot", 512, 64)
	cold := m.Func("cold", 512, 64)
	err := m.Run(func(m *Machine) {
		for i := 0; i < 100; i++ {
			m.Call(hot, false)
			m.ALU(200)
			m.Return()
		}
		m.Call(cold, false)
		m.ALU(50)
		m.Return()
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := m.Profile(0)
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	if prof[0].Name != "hot" {
		t.Errorf("top function = %s, want hot", prof[0].Name)
	}
	var hotShare, coldShare float64
	for _, p := range prof {
		switch p.Name {
		case "hot":
			hotShare = p.Share
		case "cold":
			coldShare = p.Share
		}
	}
	// Call/return spill costs are attributed to the caller (main), so the
	// callee's share tops out below its pure ALU proportion.
	if hotShare < 0.7 {
		t.Errorf("hot share = %.2f, want > 0.7", hotShare)
	}
	if coldShare >= hotShare {
		t.Error("cold hotter than hot")
	}
}

func TestProfileSharesSumToOne(t *testing.T) {
	m := New(abi.Purecap)
	m.EnableProfile()
	m.Func("main", 512, 64)
	f := m.Func("work", 512, 64)
	_ = m.Run(func(m *Machine) {
		m.Call(f, false)
		arr := m.Alloc(1 << 18)
		for i := 0; i < 2000; i++ {
			m.Load(arr+Ptr(i*64), 8)
			m.ALU(2)
		}
		m.Return()
	})
	var sum float64
	for _, p := range m.Profile(0) {
		sum += p.Share
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("shares sum to %.3f", sum)
	}
}

func TestProfileStallsAttributedToIssuer(t *testing.T) {
	// A function that only misses in DRAM must own those stall cycles.
	m := New(abi.Hybrid)
	m.EnableProfile()
	m.Func("main", 512, 64)
	misser := m.Func("misser", 512, 64)
	err := m.Run(func(m *Machine) {
		arr := m.Alloc(16 << 20)
		m.Call(misser, false)
		for i := 0; i < 5000; i++ {
			m.LoadDep(arr+Ptr((uint64(i)*7919*64)%(16<<20)), 8)
		}
		m.Return()
		m.ALU(100) // main's own cheap work
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := m.Profile(0)
	if prof[0].Name != "misser" || prof[0].Share < 0.9 {
		t.Errorf("stalls not attributed: top = %s (%.2f)", prof[0].Name, prof[0].Share)
	}
}

// TestAttributionIsOptIn: a machine attributes nothing until
// EnableProfile, and opting in changes no counter — only the per-function
// profile appears. Without it the whole-run totals still match the counter
// file, since they are read from the machine, not from the functions.
func TestAttributionIsOptIn(t *testing.T) {
	run := func(profiled bool) *Machine {
		m := NewMachine(DefaultConfig(abi.Purecap))
		if profiled {
			m.EnableProfile()
		}
		m.Func("main", 512, 64)
		work := m.Func("work", 512, 64)
		err := m.Run(func(m *Machine) {
			arr := m.Alloc(4 << 20)
			m.Call(work, false)
			for i := 0; i < 4000; i++ {
				m.LoadDep(arr+Ptr((uint64(i)*7919*64)%(4<<20)), 8)
				m.ALU(2)
				m.BranchAt(4101, i%3 == 0)
			}
			m.Return()
			m.ALU(100)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, profiled := run(false), run(true)

	if p := plain.Profile(0); len(p) != 0 {
		t.Fatalf("machine without EnableProfile attributed %d functions", len(p))
	}
	pa := plain.AttributionProfile()
	if len(pa.Functions) != 0 {
		t.Fatalf("machine without EnableProfile has %d attributed functions", len(pa.Functions))
	}
	if plain.C != profiled.C {
		t.Fatal("EnableProfile changed the counter file")
	}
	// The totals in finalize()'s float grouping are the counter file.
	tot := pa.Totals
	fe := tot[AttrFrontend] + tot[AttrPCC]
	be := tot[AttrL1Bound] + tot[AttrL2Bound] + tot[AttrExtMemBound] + tot[AttrCoreBound]
	if got, want := uint64(tot[AttrRetiring]+fe+be+tot[AttrBadSpec]), plain.C.Get(pmu.CPU_CYCLES); got != want {
		t.Fatalf("totals give %d cycles, counter file %d", got, want)
	}
	events := [NumAttrEvents]pmu.Event{
		EvL1DRefill: pmu.L1D_CACHE_REFILL, EvL2DRefill: pmu.L2D_CACHE_REFILL,
		EvLLCMissRd: pmu.LL_CACHE_MISS_RD, EvL1IRefill: pmu.L1I_CACHE_REFILL,
		EvDTLBWalk: pmu.DTLB_WALK, EvITLBWalk: pmu.ITLB_WALK,
		EvBrMispredict: pmu.BR_MIS_PRED_RETIRED,
		EvCapMemRd:     pmu.CAP_MEM_ACCESS_RD, EvCapMemWr: pmu.CAP_MEM_ACCESS_WR,
	}
	for i, ev := range events {
		if got, want := pa.TotalEvents[i], plain.C.Get(ev); got != want {
			t.Errorf("total %s = %d, counter file %s = %d", AttrEvent(i), got, ev, want)
		}
	}

	pp := profiled.AttributionProfile()
	if pp.Totals != pa.Totals || pp.TotalEvents != pa.TotalEvents {
		t.Fatal("EnableProfile changed the whole-run totals")
	}
	prof := profiled.Profile(0)
	if len(prof) == 0 || len(pp.Functions) == 0 {
		t.Fatal("EnableProfile produced an empty profile")
	}
	if prof[0].Name != "work" || prof[0].Share < 0.9 {
		t.Fatalf("top function %s (%.2f), want work owning its misses", prof[0].Name, prof[0].Share)
	}
}

func TestFormatProfile(t *testing.T) {
	prof := []FnProfile{
		{Name: "a", Cycles: 1000, Uops: 500, Share: 0.8, Samples: 10},
		{Name: "b", Cycles: 250, Uops: 100, Share: 0.2, Samples: 2},
	}
	out := FormatProfile(prof, 1)
	if !strings.Contains(out, "a") || strings.Contains(out, "\nb") {
		t.Errorf("top-1 formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "80.0%") {
		t.Errorf("share missing:\n%s", out)
	}
}
