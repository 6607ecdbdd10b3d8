package experiments

import (
	"strings"
	"testing"
	"time"

	"cherisim/internal/abi"
	"cherisim/internal/faultinject"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

// telemetryGrid is the small chaotic grid the span/metric tests run: three
// pairs, enough for worker-pool traffic, retries and injections.
func telemetryGrid(t *testing.T) []Pair {
	t.Helper()
	return []Pair{
		{Workload: mustWorkload(t, "525.x264_r"), ABI: abi.Hybrid},
		{Workload: mustWorkload(t, "525.x264_r"), ABI: abi.Purecap},
		{Workload: mustWorkload(t, "531.deepsjeng_r"), ABI: abi.Hybrid},
	}
}

// TestSessionTelemetrySpanHierarchy runs a chaotic grid under an enabled
// hub and asserts the recorded hierarchy: one campaign root, run spans on
// worker tracks beneath it, attempt spans beneath runs, injected faults as
// instants inside attempts, and the engine metric set fed consistently.
func TestSessionTelemetrySpanHierarchy(t *testing.T) {
	hub := telemetry.New()
	s := NewSession(1)
	s.Jobs = 2
	s.Retries = 1
	s.Chaos = &faultinject.Config{Seed: 42, RatePerMUops: 30}
	s.Telemetry = hub

	grid := telemetryGrid(t)
	s.Prefetch(grid)
	d := s.Run(grid[0].Workload, grid[0].ABI) // singleflight hit on the cache
	s.FinishTelemetry()

	spans := hub.Spans.Snapshot()
	var campaignID uint64
	runs := map[uint64]telemetry.SpanRecord{}
	var attempts []telemetry.SpanRecord
	for _, sp := range spans {
		switch {
		case sp.Name == "campaign":
			if campaignID != 0 {
				t.Fatal("more than one campaign root span")
			}
			campaignID = sp.ID
		case strings.HasPrefix(sp.Name, "run:"):
			runs[sp.ID] = sp
		case strings.HasPrefix(sp.Name, "attempt:"):
			attempts = append(attempts, sp)
		}
	}
	if campaignID == 0 {
		t.Fatal("campaign root span missing")
	}
	if len(runs) != len(grid) {
		t.Fatalf("%d run spans, want %d", len(runs), len(grid))
	}
	tracks := hub.Spans.TrackNames()
	totalInstants := 0
	for _, sp := range runs {
		if sp.Parent != campaignID {
			t.Fatalf("run span %s parented to %d, want campaign %d", sp.Name, sp.Parent, campaignID)
		}
		if !strings.HasPrefix(tracks[sp.Track], "worker-") {
			t.Fatalf("run span %s on track %q, want a worker track", sp.Name, tracks[sp.Track])
		}
	}
	if len(attempts) < len(runs) {
		t.Fatalf("%d attempt spans for %d runs", len(attempts), len(runs))
	}
	for _, sp := range attempts {
		parent, ok := runs[sp.Parent]
		if !ok {
			t.Fatalf("attempt span %s has no run parent", sp.Name)
		}
		if sp.Track != parent.Track {
			t.Fatalf("attempt %s on track %d, run on %d", sp.Name, sp.Track, parent.Track)
		}
		if sp.StartUs < parent.StartUs || sp.StartUs+sp.DurUs > parent.StartUs+parent.DurUs {
			t.Fatalf("attempt %s escapes its run interval", sp.Name)
		}
		for _, in := range sp.Instants {
			if !strings.HasPrefix(in.Name, "inject:") {
				t.Fatalf("unexpected instant %q", in.Name)
			}
			totalInstants++
		}
	}

	m := hub.Metrics
	if got := m.Counter("runs_started").Value(); got != int64(len(grid)) {
		t.Fatalf("runs_started = %d, want %d", got, len(grid))
	}
	done := m.Counter("runs_completed").Value() + m.Counter("runs_failed").Value()
	if done != int64(len(grid)) {
		t.Fatalf("completed+failed = %d, want %d", done, len(grid))
	}
	if got := m.Counter("run_attempts").Value(); got != int64(len(attempts)) {
		t.Fatalf("run_attempts = %d but %d attempt spans", got, len(attempts))
	}
	if m.Counter("singleflight_hits").Value() < 1 {
		t.Fatal("cached Run did not count a singleflight hit")
	}
	var injected int64
	for _, k := range faultinject.AllKinds() {
		injected += m.Counter("faults_injected." + k.String()).Value()
	}
	if injected != int64(totalInstants) {
		t.Fatalf("injected counters total %d but %d instants recorded", injected, totalInstants)
	}
	if injected == 0 {
		t.Fatal("chaos session recorded no injections (rate too low for the grid?)")
	}
	if d.Attempts > 1 && m.Counter("runs_retried").Value() == 0 {
		t.Fatal("retried run not counted")
	}
	if m.Gauge("pool_occupancy").Value() != 0 {
		t.Fatalf("pool occupancy %d after campaign drained", m.Gauge("pool_occupancy").Value())
	}

	// The whole hierarchy must export as a loadable trace.
	tr := telemetry.BuildTrace(hub.Spans)
	if len(tr.TraceEvents) == 0 {
		t.Fatal("empty trace export")
	}
}

// TestTelemetryDoesNotPerturbRendering renders one experiment with
// telemetry off and on: the measurement results must be byte-identical —
// observation never changes what is observed.
func TestTelemetryDoesNotPerturbRendering(t *testing.T) {
	e, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	plain := NewSession(1)
	want, err := e.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	observed := NewSession(1)
	observed.Telemetry = telemetry.New()
	observed.Prefetch(e.Pairs())
	got, err := e.Run(observed)
	observed.FinishTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("telemetry changed rendered output:\n--- off ---\n%s\n--- on ---\n%s", want, got)
	}
	if observed.Telemetry.Spans.Total() == 0 {
		t.Fatal("observed session recorded no spans")
	}
}

// TestChaosScheduleUnchangedByObservation pins the injector contract: the
// fault schedule with an observer attached is bit-identical to the one
// without, so telemetry can never alter a chaos campaign's results.
func TestChaosScheduleUnchangedByObservation(t *testing.T) {
	w := mustWorkload(t, "525.x264_r")
	run := func(hub *telemetry.Hub) *RunData {
		s := chaosSession(&faultinject.Config{Seed: 42, RatePerMUops: 30}, 1)
		s.Telemetry = hub
		return s.Run(w, abi.Purecap)
	}
	plain, observed := run(nil), run(telemetry.New())
	if len(plain.Injected) != len(observed.Injected) {
		t.Fatalf("schedules diverged: %d vs %d events", len(plain.Injected), len(observed.Injected))
	}
	for i := range plain.Injected {
		if plain.Injected[i] != observed.Injected[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, plain.Injected[i], observed.Injected[i])
		}
	}
	if plain.Counters != observed.Counters {
		t.Fatal("observation changed the machine counters")
	}
}

// disabledHotPathAllocs measures the allocations of the telemetry
// instrumentation sequence exactly as the session hot path executes it
// with telemetry off (nil observer), plus the cached singleflight path.
func disabledHotPathAllocs(s *Session, p Pair) float64 {
	var obs *runObserver
	key := s.runStoreKey(p.Workload, p.ABI, s.effectiveConfig(p.ABI))
	e := &resultstore.Entry{Key: key}
	seq := testing.AllocsPerRun(200, func() {
		obs.sfHit()
		span := obs.runStart(key, 1, 0)
		att := obs.attemptStart(span, 0)
		_ = obs.injectObserver(att, 1)
		obs.attemptEnd(att, e, nil, false)
		obs.runEnd(span, e, nil, 1, time.Duration(0))
		obs.experimentEnd(obs.experimentSpan(nil), nil, nil)
		obs.finish()
	})
	cached := testing.AllocsPerRun(200, func() { s.Run(p.Workload, p.ABI) })
	return seq + cached
}

// TestDisabledTelemetryHotPathAllocationFree is the non-benchmark guard
// for the zero-overhead contract (runs on every `go test`).
func TestDisabledTelemetryHotPathAllocationFree(t *testing.T) {
	p := telemetryGrid(t)[0]
	s := NewSession(1)
	s.Run(p.Workload, p.ABI) // warm the singleflight cache
	if allocs := disabledHotPathAllocs(s, p); allocs != 0 {
		t.Fatalf("disabled-telemetry hot path allocates %.2f objects per run, want 0", allocs)
	}
}

// BenchmarkSessionTelemetryOff guards the disabled-telemetry run path: it
// first asserts the instrumentation adds zero allocations per run, then
// times the cached-run hot path the campaign engine hammers.
func BenchmarkSessionTelemetryOff(b *testing.B) {
	w, err := workloads.ByName("525.x264_r")
	if err != nil {
		b.Fatal(err)
	}
	p := Pair{Workload: w, ABI: abi.Hybrid}
	s := NewSession(1)
	s.Run(p.Workload, p.ABI)
	if allocs := disabledHotPathAllocs(s, p); allocs != 0 {
		b.Fatalf("disabled-telemetry hot path allocates %.2f objects per run, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(p.Workload, p.ABI)
	}
}
