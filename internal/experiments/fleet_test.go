package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/soc"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// busy gives a synthetic kernel a few thousand µops of work.
func busy(m *core.Machine) {
	m.Func("busy", 256, 32)
	p := m.Alloc(1 << 14)
	for i := uint64(0); i < 4000; i++ {
		m.Load(p+core.Ptr(i*8%(1<<14)), 8)
		m.ALU(2)
	}
}

// TestExtensionKernelsFanOutWithinFleet: ext-sweep issues its independent
// kernels, and ext-revocation its base and temporal-safety runs,
// concurrently, so on a 2-slot fleet at least two of their spans overlap,
// never more than the two slots, and the rendered text is a serial
// session's.
func TestExtensionKernelsFanOutWithinFleet(t *testing.T) {
	const slots = 2
	exps, err := Select([]string{"ext-sweep", "ext-revocation"})
	if err != nil {
		t.Fatal(err)
	}
	render := func(s *Session) string {
		var out bytes.Buffer
		if failed := RenderSelected(s, &out, exps, nil); len(failed) != 0 {
			t.Fatalf("render failed: %+v", failed)
		}
		return out.String()
	}
	serial := NewSession(1)
	serial.Jobs = 1
	want := render(serial)

	hub := telemetry.New()
	s := NewSession(1)
	s.SharePool(NewFleet(slots))
	s.Telemetry = hub
	if got := render(s); got != want {
		t.Fatalf("fanned-out render differs from the serial session's:\n%s\nwant:\n%s", got, want)
	}
	s.FinishTelemetry()

	// Sweep the kernel and run spans' edges in time order, closing before
	// opening at a tie, and track how many were open at once.
	type edge struct {
		at    float64
		delta int
	}
	var edges []edge
	for _, sp := range hub.Spans.Snapshot() {
		if strings.HasPrefix(sp.Name, "kernel:") || strings.HasPrefix(sp.Name, "run:") {
			edges = append(edges, edge{sp.StartUs, 1}, edge{sp.StartUs + sp.DurUs, -1})
		}
	}
	// 14 sweep kernels, plus 4 purecap runs with and 4 without temporal
	// safety.
	if len(edges) != 2*(14+4+4) {
		t.Fatalf("%d kernel and run spans, want 22", len(edges)/2)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	open, peak := 0, 0
	for _, e := range edges {
		open += e.delta
		peak = max(peak, open)
	}
	if peak < 2 {
		t.Fatal("simulations never overlapped: the extensions issue them one at a time")
	}
	if peak > slots {
		t.Fatalf("%d simulations open at once on a %d-slot fleet", peak, slots)
	}
}

// TestConcurrentKernelsExecuteOnce: identical RunKernel calls in flight at
// the same time join one execution instead of simulating the key each.
func TestConcurrentKernelsExecuteOnce(t *testing.T) {
	s := NewSession(1)
	s.Telemetry = telemetry.New()
	release := make(chan struct{})
	var bodies atomic.Int32
	body := func(m *core.Machine) {
		bodies.Add(1)
		<-release
		busy(m)
	}

	const callers = 4
	results := make([]*RunData, callers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.RunKernel("test/blocking-kernel", core.DefaultConfig(abi.Purecap), body)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	joined := waitFor(func() bool {
		return s.Telemetry.Metrics.Counter("singleflight_hits").Value() == callers-1
	})
	close(release)
	wg.Wait()
	if !joined {
		t.Error("the other callers never joined the in-flight kernel")
	}
	if n := bodies.Load(); n != 1 {
		t.Fatalf("kernel body executed %d times, want 1", n)
	}
	if n := s.Executions(); n != 1 {
		t.Fatalf("Executions() = %d, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] == nil || results[i].Counters != results[0].Counters {
			t.Fatalf("caller %d got a different kernel result", i)
		}
	}
}

// TestSessionsOnOneFleetExecuteOnce: two sessions sharing a fleet — the
// campaign service's tenants — run the same pair concurrently and
// simulate it once between them.
func TestSessionsOnOneFleetExecuteOnce(t *testing.T) {
	fleet := NewFleet(2)
	hub := telemetry.New()
	release := make(chan struct{})
	var bodies atomic.Int32
	w := &workloads.Workload{Name: "test/blocking-run", Run: func(m *core.Machine, scale int) {
		bodies.Add(1)
		<-release
		busy(m)
	}}

	sessions := []*Session{NewSession(1), NewSession(1)}
	results := make([]*RunData, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		s.SharePool(fleet)
		s.Telemetry = hub
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			results[i] = s.Run(w, abi.Hybrid)
		}(i, s)
	}
	joined := waitFor(func() bool { return hub.Metrics.Counter("singleflight_hits").Value() == 1 })
	close(release)
	wg.Wait()
	if !joined {
		t.Error("the second session never joined the in-flight run")
	}
	if n := bodies.Load(); n != 1 {
		t.Fatalf("workload executed %d times across the sessions, want 1", n)
	}
	if n := sessions[0].Executions() + sessions[1].Executions(); n != 1 {
		t.Fatalf("Executions() sum to %d, want 1", n)
	}
	if results[0].Err != nil || results[0].Counters != results[1].Counters {
		t.Fatalf("sessions disagree on the shared run: %v / %v", results[0].Err, results[1].Err)
	}
}

// TestCoRunTopoCountsAgainstFleet: a 16-core topology co-run holds
// min(cores, fleet) worker slots, so on a 2-slot fleet the slots held by
// executing grid runs plus the co-run never exceed 2.
func TestCoRunTopoCountsAgainstFleet(t *testing.T) {
	const slots, cores = 2, 16
	s := NewSession(1)
	s.SharePool(NewFleet(slots))

	var mu sync.Mutex
	occupancy, peak := 0, 0
	hold := func(n int) {
		mu.Lock()
		occupancy += n
		peak = max(peak, occupancy)
		mu.Unlock()
	}
	// Each side waits briefly for the other to be executing, so a co-run
	// running outside the fleet bound is sure to overlap the grid runs.
	var gridActive, coRunActive atomic.Int32
	await := func(other *atomic.Int32) {
		for deadline := time.Now().Add(250 * time.Millisecond); other.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	grid := make([]*workloads.Workload, 6)
	for i := range grid {
		grid[i] = &workloads.Workload{Name: fmt.Sprintf("test/occupancy-%d", i), Run: func(m *core.Machine, scale int) {
			hold(1)
			gridActive.Add(1)
			await(&coRunActive)
			busy(m)
			gridActive.Add(-1)
			hold(-1)
		}}
	}
	var started, finished atomic.Int32
	specs := make([]soc.CoreSpec, cores)
	for i := range specs {
		specs[i] = soc.CoreSpec{Config: core.DefaultConfig(abi.Hybrid), Body: func(m *core.Machine) {
			if started.Add(1) == 1 {
				hold(slots)
				coRunActive.Store(1)
				await(&gridActive)
			}
			busy(m)
			if finished.Add(1) == cores {
				coRunActive.Store(0)
				hold(-slots)
			}
		}}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		topo := soc.Topology{Kind: soc.TopoMesh, Cores: cores}
		if _, _, err := s.CoRun("test/occupancy-corun", topo, specs); err != nil {
			t.Error(err)
		}
	}()
	for _, w := range grid {
		wg.Add(1)
		go func(w *workloads.Workload) {
			defer wg.Done()
			s.Run(w, abi.Hybrid)
		}(w)
	}
	wg.Wait()
	if peak > slots {
		t.Fatalf("peak pool occupancy %d exceeds the %d-slot fleet", peak, slots)
	}
}

// TestCoRunExecutesWithinItsSlots: a 16-core co-run on a 2-slot fleet
// never executes more than 2 cores at once, even with more host threads
// free. Each core counts itself while it runs between yields, which fall
// on every QuantumUops-th µop of an ALU-only body.
func TestCoRunExecutesWithinItsSlots(t *testing.T) {
	const slots, cores = 2, 16
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s := NewSession(1)
	s.SharePool(NewFleet(slots))

	var active, peak atomic.Int32
	enter := func() {
		n := active.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		runtime.Gosched()
	}
	specs := make([]soc.CoreSpec, cores)
	for i := range specs {
		specs[i] = soc.CoreSpec{Config: core.DefaultConfig(abi.Hybrid), Body: func(m *core.Machine) {
			m.Func("spin", 256, 32)
			enter()
			for u := 1; u <= 3*soc.QuantumUops; u++ {
				if u%soc.QuantumUops == 0 {
					active.Add(-1) // this µop yields
					m.ALU(1)
					enter()
				} else {
					m.ALU(1)
				}
			}
			active.Add(-1)
		}}
	}
	if _, _, err := s.CoRun("test/slot-bound", soc.Topology{Kind: soc.TopoMesh, Cores: cores}, specs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > slots {
		t.Fatalf("%d cores executed at once on a %d-slot fleet", p, slots)
	}
}

// TestMultiSlotCoRunsDoNotDeadlock: two concurrent co-runs that each need
// the whole fleet both finish — neither can hold part of the fleet while
// waiting for the rest.
func TestMultiSlotCoRunsDoNotDeadlock(t *testing.T) {
	s := NewSession(1)
	s.SharePool(NewFleet(2))
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			specs := make([]soc.CoreSpec, 16)
			for j := range specs {
				specs[j] = soc.CoreSpec{Config: core.DefaultConfig(abi.Purecap), Body: busy}
			}
			_, _, err := s.CoRun(fmt.Sprintf("test/deadlock-%d", i), soc.Topology{Kind: soc.TopoMesh, Cores: 16}, specs)
			done <- err
		}(i)
	}
	timeout := time.After(2 * time.Minute)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-timeout:
			t.Fatal("concurrent multi-slot co-runs did not finish")
		}
	}
}

// TestAblationRunsCountedOnParent: an ablation's modified-configuration
// runs execute on a session derived from the parent, so the parent's
// execution count covers them: 14 base runs plus 7 modified ones.
func TestAblationRunsCountedOnParent(t *testing.T) {
	e, err := ByID("ablation-caches")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(1)
	s.Prefetch(e.Pairs())
	if _, err := e.Run(s); err != nil {
		t.Fatal(err)
	}
	if n := s.Executions(); n != 21 {
		t.Fatalf("Executions() = %d after ablation-caches, want 21", n)
	}
}
