package pmu

import (
	"testing"
	"testing/quick"
)

func TestEventNamesUnique(t *testing.T) {
	seen := map[string]Event{}
	for e := Event(0); e < NumEvents; e++ {
		name := e.String()
		if name == "" {
			t.Fatalf("event %d unnamed", e)
		}
		if prev, ok := seen[name]; ok {
			t.Fatalf("duplicate name %q for %d and %d", name, prev, e)
		}
		seen[name] = e
	}
}

func TestParseEvent(t *testing.T) {
	e, err := ParseEvent("CAP_MEM_ACCESS_RD")
	if err != nil || e != CAP_MEM_ACCESS_RD {
		t.Fatalf("parse = %v, %v", e, err)
	}
	if _, err := ParseEvent("NOT_AN_EVENT"); err == nil {
		t.Fatal("bogus event parsed")
	}
}

func TestCountersBasics(t *testing.T) {
	var c Counters
	c.Inc(CPU_CYCLES)
	c.Add(INST_RETIRED, 10)
	if c.Get(CPU_CYCLES) != 1 || c.Get(INST_RETIRED) != 10 {
		t.Fatal("counter arithmetic wrong")
	}
	if c.Ratio(INST_RETIRED, CPU_CYCLES) != 10 {
		t.Fatal("ratio wrong")
	}
	if c.Ratio(CPU_CYCLES, DTLB_WALK) != 0 {
		t.Fatal("zero-denominator ratio not zero")
	}
	if c.Sum(CPU_CYCLES, INST_RETIRED) != 11 {
		t.Fatal("sum wrong")
	}
}

func TestMerge(t *testing.T) {
	var a, b Counters
	a.Add(LD_SPEC, 5)
	b.Add(LD_SPEC, 7)
	b.Add(ST_SPEC, 2)
	a.Merge(&b)
	if a.Get(LD_SPEC) != 12 || a.Get(ST_SPEC) != 2 {
		t.Fatalf("merge wrong: %v", a)
	}
}

func TestCounterFileSlotLimit(t *testing.T) {
	_, err := NewCounterFile(INST_RETIRED, LD_SPEC, ST_SPEC, DP_SPEC, ASE_SPEC, VFP_SPEC, BR_RETIRED)
	if err == nil {
		t.Fatal("seven events accepted into six slots")
	}
	f, err := NewCounterFile(CPU_CYCLES, INST_RETIRED, LD_SPEC, ST_SPEC, DP_SPEC, ASE_SPEC, VFP_SPEC)
	if err != nil {
		t.Fatalf("cycles must not consume a slot: %v", err)
	}
	if len(f.Programmed()) != 6 {
		t.Fatalf("programmed = %v", f.Programmed())
	}
}

func TestCounterFileCaptureAndRead(t *testing.T) {
	var truth Counters
	truth.Add(CPU_CYCLES, 1000)
	truth.Add(INST_RETIRED, 1500)
	truth.Add(DTLB_WALK, 3)

	f, err := NewCounterFile(INST_RETIRED)
	if err != nil {
		t.Fatal(err)
	}
	f.Capture(&truth)
	if v, err := f.Read(CPU_CYCLES); err != nil || v != 1000 {
		t.Fatalf("cycles = %d, %v", v, err)
	}
	if v, err := f.Read(INST_RETIRED); err != nil || v != 1500 {
		t.Fatalf("inst = %d, %v", v, err)
	}
	if _, err := f.Read(DTLB_WALK); err == nil {
		t.Fatal("unprogrammed event readable")
	}
}

func TestBuildPlanCoversAllEventsOnce(t *testing.T) {
	// Property: every requested event (except CPU_CYCLES) appears in exactly
	// one group, and no group exceeds the slot count.
	f := func(seed uint8) bool {
		n := int(seed%uint8(NumEvents)) + 1
		var req []Event
		for i := 0; i < n; i++ {
			req = append(req, Event(i))
		}
		plan := BuildPlan(req)
		seen := map[Event]int{}
		for _, g := range plan {
			if len(g) > Slots {
				return false
			}
			for _, e := range g {
				seen[e]++
			}
		}
		for _, e := range req {
			if e == CPU_CYCLES {
				continue
			}
			if seen[e] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFullEventSetPlanMatchesPaperRunCount(t *testing.T) {
	// The paper collects its event set in nine runs of six counters. Our
	// full extended set spans NumEvents-1 programmable events.
	plan := BuildPlan(AllEvents())
	want := (int(NumEvents) - 1 + Slots - 1) / Slots
	if plan.Runs() != want {
		t.Errorf("runs = %d, want %d", plan.Runs(), want)
	}
	if len(plan.Events()) != int(NumEvents)-1 {
		t.Errorf("plan events = %d", len(plan.Events()))
	}
}

func TestBuildPlanDeduplicates(t *testing.T) {
	plan := BuildPlan([]Event{LD_SPEC, LD_SPEC, ST_SPEC, CPU_CYCLES})
	if plan.Runs() != 1 || len(plan[0]) != 2 {
		t.Fatalf("plan = %v", plan)
	}
}

// TestCycleCounterOnlyPlanIsOneRun: a request for nothing but the fixed
// cycle counter still takes one run, with no programmable slot used, and
// that run captures the cycle count.
func TestCycleCounterOnlyPlanIsOneRun(t *testing.T) {
	for _, req := range [][]Event{{CPU_CYCLES}, nil} {
		plan := BuildPlan(req)
		if plan.Runs() != 1 || len(plan.Events()) != 0 {
			t.Fatalf("BuildPlan(%v) = %v, want one run with an empty group", req, plan)
		}
		var truth Counters
		truth.Add(CPU_CYCLES, 2426373)
		f, err := NewCounterFile(plan[0]...)
		if err != nil {
			t.Fatal(err)
		}
		f.Capture(&truth)
		if v, err := f.Read(CPU_CYCLES); err != nil || v != 2426373 {
			t.Fatalf("cycles = %d, %v; want 2426373", v, err)
		}
	}
}
