package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/workloads"
)

// TestSingleflightExecutesOnce asserts that N concurrent Run calls on one
// (workload, ABI) key collapse onto exactly one workload execution, with
// every caller receiving the same RunData. The Configure hook observes
// executions: the session invokes it once per uncached run.
func TestSingleflightExecutesOnce(t *testing.T) {
	var execs int32
	s := NewSession(1)
	s.Jobs = 4
	s.Configure = func(*core.Config) { atomic.AddInt32(&execs, 1) }

	w, err := workloads.ByName("519.lbm_r")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]*RunData, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Run(w, abi.Hybrid)
		}(i)
	}
	wg.Wait()

	if got := atomic.LoadInt32(&execs); got != 1 {
		t.Fatalf("workload executed %d times, want exactly 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different RunData", i)
		}
	}
	if results[0] == nil || results[0].Err != nil {
		t.Fatalf("bad run data: %+v", results[0])
	}
}

// TestDistinctKeysRunIndependently asserts that concurrent Run calls on
// different keys each execute once and produce independent results.
func TestDistinctKeysRunIndependently(t *testing.T) {
	var execs int32
	s := NewSession(1)
	s.Jobs = 4
	s.Configure = func(*core.Config) { atomic.AddInt32(&execs, 1) }

	w, err := workloads.ByName("519.lbm_r")
	if err != nil {
		t.Fatal(err)
	}
	abis := abi.All()
	results := make([]*RunData, len(abis))
	var wg sync.WaitGroup
	for i, a := range abis {
		wg.Add(1)
		go func(i int, a abi.ABI) {
			defer wg.Done()
			results[i] = s.Run(w, a)
		}(i, a)
	}
	wg.Wait()

	if got := atomic.LoadInt32(&execs); got != int32(len(abis)) {
		t.Fatalf("executions = %d, want %d", got, len(abis))
	}
	for i, d := range results {
		if d == nil || d.Err != nil {
			t.Fatalf("%s: bad run data %+v", abis[i], d)
		}
	}
	// The purecap run must be slower than hybrid (sanity that the parallel
	// path preserved per-ABI behaviour, not just completed).
	if results[2].Metrics.Seconds <= 0 || results[0].Metrics.Seconds <= 0 {
		t.Fatal("zero simulated time")
	}
}

// TestPrefetchRenderMatchesSerial asserts the tentpole's determinism
// guarantee: prefetching an experiment's grid across the worker pool and
// then rendering produces byte-identical output to a fully serial session.
func TestPrefetchRenderMatchesSerial(t *testing.T) {
	e, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}

	serial := NewSession(1)
	serial.Jobs = 1
	want, err := e.Run(serial)
	if err != nil {
		t.Fatal(err)
	}

	par := NewSession(1)
	par.Jobs = 4
	par.Prefetch(e.Pairs())
	got, err := e.Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parallel prefetch render diverged from serial render:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestPrefetchDeduplicatesPairs asserts Prefetch collapses duplicate pairs
// onto a single execution.
func TestPrefetchDeduplicatesPairs(t *testing.T) {
	var execs int32
	s := NewSession(1)
	s.Jobs = 4
	s.Configure = func(*core.Config) { atomic.AddInt32(&execs, 1) }

	w, err := workloads.ByName("519.lbm_r")
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{
		{Workload: w, ABI: abi.Hybrid},
		{Workload: w, ABI: abi.Hybrid},
		{Workload: nil, ABI: abi.Hybrid}, // nil workloads are skipped
		{Workload: w, ABI: abi.Hybrid},
	}
	s.Prefetch(pairs)
	if got := atomic.LoadInt32(&execs); got != 1 {
		t.Fatalf("prefetch executed %d times, want 1", got)
	}
}

// TestUnionPairsDeduplicates asserts the cross-experiment union used by
// `cmd/experiments -all` contains each (workload, ABI) key once.
func TestUnionPairsDeduplicates(t *testing.T) {
	union := UnionPairs(All())
	if len(union) == 0 {
		t.Fatal("empty union")
	}
	seen := map[string]bool{}
	for _, p := range union {
		key := p.Workload.Name + "/" + p.ABI.String()
		if seen[key] {
			t.Fatalf("duplicate pair %s in union", key)
		}
		seen[key] = true
	}
	// The union must cover the full campaign grid (fig1/fig5/claims need
	// every workload under every ABI).
	if want := len(CampaignGrid()); len(union) < want {
		t.Fatalf("union has %d pairs, want at least the %d-pair campaign grid", len(union), want)
	}
}

// TestFanOutReturnsLowestIndexError: fanOut runs every index and returns
// the error a serial loop would have stopped at, the lowest failing
// index's, even when a higher index fails first.
func TestFanOutReturnsLowestIndexError(t *testing.T) {
	const n = 8
	var ran atomic.Int32
	late := make(chan struct{})
	err := fanOut(n, func(i int) error {
		ran.Add(1)
		switch i {
		case 2:
			<-late
			return fmt.Errorf("fail %d", i)
		case 5:
			defer close(late)
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if got := ran.Load(); got != n {
		t.Fatalf("fanOut ran %d of %d indices", got, n)
	}
	if err == nil || err.Error() != "fail 2" {
		t.Fatalf("fanOut returned %v, want the lowest index's error (fail 2)", err)
	}
}
