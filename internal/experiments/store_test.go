package experiments

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/resultstore"
	"cherisim/internal/soc"
	"cherisim/internal/telemetry"
)

// storeSession builds a session backed by a store rooted at dir.
func storeSession(t *testing.T, dir string) *Session {
	t.Helper()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(1)
	s.Store = st
	return s
}

// sameRun asserts two RunData are observationally identical: everything a
// renderer can see must match between a simulated and a served result.
func sameRun(t *testing.T, cold, warm *RunData) {
	t.Helper()
	if cold.Counters != warm.Counters {
		t.Error("counters differ between cold and warm run")
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) {
		t.Error("metrics differ between cold and warm run")
	}
	if !reflect.DeepEqual(cold.Topdown, warm.Topdown) {
		t.Error("topdown differs between cold and warm run")
	}
	if cold.Heap != warm.Heap || cold.Uops != warm.Uops || cold.Attempts != warm.Attempts {
		t.Error("heap/uops/attempts differ between cold and warm run")
	}
	if !reflect.DeepEqual(cold.Injected, warm.Injected) {
		t.Error("injected events differ between cold and warm run")
	}
	switch {
	case (cold.Err == nil) != (warm.Err == nil):
		t.Errorf("error presence differs: %v vs %v", cold.Err, warm.Err)
	case cold.Err != nil && cold.Err.Error() != warm.Err.Error():
		t.Errorf("error strings differ: %q vs %q", cold.Err, warm.Err)
	}
}

// TestWarmRunServedFromStore is the tentpole acceptance test at the API
// level: a second session over the same store performs zero simulations
// and returns observationally identical results.
func TestWarmRunServedFromStore(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "519.lbm_r")

	cold := storeSession(t, dir)
	d1 := cold.Run(w, abi.Purecap)
	if d1.Err != nil {
		t.Fatal(d1.Err)
	}
	if st := cold.StoreStats(); st.Writes != 1 || st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("cold stats = %s", st)
	}

	warm := storeSession(t, dir)
	warm.Telemetry = telemetry.New()
	d2 := warm.Run(w, abi.Purecap)
	sameRun(t, d1, d2)
	if st := warm.StoreStats(); st.Hits != 1 || st.Misses != 0 || st.Writes != 0 {
		t.Fatalf("warm stats = %s", st)
	}
	// Zero simulations: the run was never started, only served.
	m := warm.Telemetry.Metrics
	if v := m.Counter("runs_started").Value(); v != 0 {
		t.Errorf("warm session simulated %d runs", v)
	}
	if v := m.Counter("store_hits").Value(); v != 1 {
		t.Errorf("store_hits = %d", v)
	}
	if v := m.Counter("store_misses").Value(); v != 0 {
		t.Errorf("store_misses = %d", v)
	}
}

// TestCorruptedEntryResimulatedAndRewritten pins the resume semantics: a
// damaged entry is a miss, the pair re-simulates, and the rewrite repairs
// the store for the next campaign.
func TestCorruptedEntryResimulatedAndRewritten(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "519.lbm_r")

	cold := storeSession(t, dir)
	d1 := cold.Run(w, abi.Hybrid)
	if d1.Err != nil {
		t.Fatal(d1.Err)
	}
	path := cold.Store.Path(cold.runStoreKey(w, abi.Hybrid, cold.effectiveConfig(abi.Hybrid)))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	warm := storeSession(t, dir)
	d2 := warm.Run(w, abi.Hybrid)
	sameRun(t, d1, d2)
	st := warm.StoreStats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Writes != 1 || st.Hits != 0 {
		t.Fatalf("post-corruption stats = %s", st)
	}

	third := storeSession(t, dir)
	d3 := third.Run(w, abi.Hybrid)
	sameRun(t, d1, d3)
	if st := third.StoreStats(); st.Hits != 1 || st.Corrupt != 0 {
		t.Fatalf("post-repair stats = %s", st)
	}
}

// TestStoreKeyingSeparatesCampaigns: scale and the Configure hook are part
// of the key, so a different campaign never sees another's entries.
func TestStoreKeyingSeparatesCampaigns(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "519.lbm_r")

	base := storeSession(t, dir)
	if d := base.Run(w, abi.Purecap); d.Err != nil {
		t.Fatal(d.Err)
	}

	scaled := storeSession(t, dir)
	scaled.Scale = 2
	scaled.Run(w, abi.Purecap)
	if st := scaled.StoreStats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("scale-2 session hit a scale-1 entry: %s", st)
	}

	modified := storeSession(t, dir)
	modified.Configure = func(c *core.Config) { c.L2.SizeBytes *= 2 }
	modified.Run(w, abi.Purecap)
	if st := modified.StoreStats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("modified-config session hit a default entry: %s", st)
	}

	// The original campaign still hits its own entry.
	again := storeSession(t, dir)
	again.Run(w, abi.Purecap)
	if st := again.StoreStats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("original campaign missed its own entry: %s", st)
	}
}

// TestChaoticRunRoundTrips: supervised runs (chaos + retries) store their
// full outcome — attempts, fault schedule, and the terminating error with
// its concrete type — so a warm resilience sweep renders identically.
func TestChaoticRunRoundTrips(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "525.x264_r")
	chaos := &faultinject.Config{
		Seed:         42,
		RatePerMUops: 60,
		Kinds:        []faultinject.Kind{faultinject.KindTagClear, faultinject.KindSpuriousTrap},
	}

	cold := storeSession(t, dir)
	cold.Chaos = chaos
	cold.Retries = 2
	d1 := cold.Run(w, abi.Purecap)
	if len(d1.Injected) == 0 {
		t.Fatal("chaos run injected nothing; raise the rate")
	}

	warm := storeSession(t, dir)
	warm.Chaos = chaos
	warm.Retries = 2
	d2 := warm.Run(w, abi.Purecap)
	if st := warm.StoreStats(); st.Hits != 1 {
		t.Fatalf("warm chaos run missed: %s", st)
	}
	sameRun(t, d1, d2)
	if d1.Err != nil {
		// The reconstructed error must keep its concrete class (the crash
		// matrix renders it via errors.As).
		var f1, f2 *core.Fault
		if errors.As(d1.Err, &f1) != errors.As(d2.Err, &f2) {
			t.Error("fault class lost through the store")
		} else if f1 != nil && f1.Kind != f2.Kind {
			t.Errorf("fault kind drifted: %v vs %v", f1.Kind, f2.Kind)
		}
	}

	// A different seed is a different campaign.
	other := storeSession(t, dir)
	other.Chaos = &faultinject.Config{Seed: 43, RatePerMUops: 60, Kinds: chaos.Kinds}
	other.Retries = 2
	other.Run(w, abi.Purecap)
	if st := other.StoreStats(); st.Hits != 0 {
		t.Errorf("different chaos seed hit the old entry: %s", st)
	}
}

// TestFailedRunRoundTrips: natural crashes (the paper's Table 5 rows) are
// stored too, so warm campaigns reproduce the failure without simulating.
func TestFailedRunRoundTrips(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "502.gcc_r")

	cold := storeSession(t, dir)
	d1 := cold.Run(w, abi.Purecap)
	if d1.Err == nil {
		t.Skip("502.gcc_r no longer crashes under purecap")
	}

	warm := storeSession(t, dir)
	d2 := warm.Run(w, abi.Purecap)
	if st := warm.StoreStats(); st.Hits != 1 {
		t.Fatalf("failed run was not served from the store: %s", st)
	}
	sameRun(t, d1, d2)
	if cellStatus(d1) != cellStatus(d2) {
		t.Errorf("crash-matrix cell drifted: %s vs %s", cellStatus(d1), cellStatus(d2))
	}
}

// TestCheckModeBypassesStoreLookups: the lockstep checker exists to
// re-execute, so a checking session must simulate even over a warm store
// (while still persisting its fresh results).
func TestCheckModeBypassesStoreLookups(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "519.lbm_r")

	cold := storeSession(t, dir)
	if d := cold.Run(w, abi.Hybrid); d.Err != nil {
		t.Fatal(d.Err)
	}

	checked := storeSession(t, dir)
	checked.Check = true
	checked.Telemetry = telemetry.New()
	if d := checked.Run(w, abi.Hybrid); d.Err != nil {
		t.Fatal(d.Err)
	}
	checked.CloseCheck()
	if st := checked.StoreStats(); st.Hits != 0 {
		t.Errorf("check mode served a stored result: %s", st)
	}
	if v := checked.Telemetry.Metrics.Counter("runs_started").Value(); v != 1 {
		t.Errorf("check mode ran %d simulations, want 1", v)
	}
}

// TestKernelRoundTrips: RunKernel results (counters, heap, revocation
// sweeps) serve identically from a warm store.
func TestKernelRoundTrips(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig(abi.Purecap)
	cfg.TemporalSafety = true
	body := func(m *core.Machine) {
		m.Func("k", 256, 32)
		for i := 0; i < 64; i++ {
			p := m.Alloc(1 << 12)
			m.Store(p, uint64(i), 8)
			m.Free(p)
			m.ALU(4)
		}
	}

	cold := storeSession(t, dir)
	k1, err := cold.RunKernel("test/kernel:v1", cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.StoreStats(); st.Writes != 1 || st.Misses != 1 {
		t.Fatalf("cold kernel stats = %s", st)
	}

	warm := storeSession(t, dir)
	k2, err := warm.RunKernel("test/kernel:v1", cfg, func(m *core.Machine) {
		t.Error("warm kernel body executed")
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.StoreStats(); st.Hits != 1 {
		t.Fatalf("warm kernel stats = %s", st)
	}
	if k1.Counters != k2.Counters || !reflect.DeepEqual(k1.Metrics, k2.Metrics) {
		t.Error("kernel counters/metrics differ between cold and warm")
	}
	if k1.Heap != k2.Heap || k1.Uops != k2.Uops || k1.Cycles() != k2.Cycles() {
		t.Error("kernel heap/uops/cycles differ between cold and warm")
	}
	if !reflect.DeepEqual(k1.Revocations, k2.Revocations) {
		t.Error("revocation sweeps differ between cold and warm")
	}

	// A different configuration is a different kernel.
	other := storeSession(t, dir)
	if _, err := other.RunKernel("test/kernel:v1", core.DefaultConfig(abi.Hybrid), body); err != nil {
		t.Fatal(err)
	}
	if st := other.StoreStats(); st.Hits != 0 {
		t.Errorf("hybrid kernel hit the purecap entry: %s", st)
	}
}

// TestCoRunRoundTrips: a soc co-run is stored as one unit and served
// per-core identical.
func TestCoRunRoundTrips(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "519.lbm_r")
	specs := func() []soc.CoreSpec {
		out := make([]soc.CoreSpec, 2)
		for i := range out {
			out[i] = soc.CoreSpec{
				Config: core.DefaultConfig(abi.Purecap),
				Body:   func(m *core.Machine) { w.Run(m, 1) },
			}
		}
		return out
	}
	topo := soc.Topology{Kind: soc.TopoMesh, Cores: 2}

	cold := storeSession(t, dir)
	r1, _, err := cold.CoRun("test/corun:x2", topo, specs())
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.StoreStats(); st.Writes != 1 {
		t.Fatalf("cold co-run stats = %s", st)
	}

	warm := storeSession(t, dir)
	r2, _, err := warm.CoRun("test/corun:x2", topo, specs())
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.StoreStats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("warm co-run stats = %s", st)
	}
	if len(r1) != len(r2) {
		t.Fatalf("core counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Counters != r2[i].Counters || !reflect.DeepEqual(r1[i].Metrics, r2[i].Metrics) {
			t.Errorf("core %d differs between cold and warm", i)
		}
	}
}

// TestCoRunTopoRoundTrips: a topology co-run is stored as one unit — every
// core's counters plus the fabric's slice/link accounting — and a warm
// session serves both back identical. A different topology is a different
// unit (the fingerprint is part of the key).
func TestCoRunTopoRoundTrips(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "llama-matmul")
	specs := func() []soc.CoreSpec {
		out := make([]soc.CoreSpec, 4)
		for i := range out {
			out[i] = soc.CoreSpec{
				Config: core.DefaultConfig(abi.Hybrid),
				Body:   func(m *core.Machine) { w.Run(m, 1) },
			}
		}
		return out
	}
	topo := soc.Topology{Kind: soc.TopoMesh, Cores: 4}

	cold := storeSession(t, dir)
	r1, f1, err := cold.CoRun("test/topo:x4", topo, specs())
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.StoreStats(); st.Writes != 1 {
		t.Fatalf("cold topo co-run stats = %s", st)
	}
	if f1 == nil || f1.Epochs == 0 {
		t.Fatalf("cold run carries no fabric stats: %+v", f1)
	}

	warm := storeSession(t, dir)
	r2, f2, err := warm.CoRun("test/topo:x4", topo, specs())
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.StoreStats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("warm topo co-run stats = %s", st)
	}
	for i := range r1 {
		if r1[i].Counters != r2[i].Counters {
			t.Errorf("core %d differs between cold and warm", i)
		}
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Error("fabric stats differ between cold and warm")
	}

	// Same id on a ring fabric must be a distinct unit, not a stale hit.
	other := storeSession(t, dir)
	if _, _, err := other.CoRun("test/topo:x4", soc.Topology{Kind: soc.TopoRing, Cores: 4}, specs()); err != nil {
		t.Fatal(err)
	}
	if st := other.StoreStats(); st.Hits != 0 || st.Writes != 1 {
		t.Errorf("ring topology reused the mesh entry: %s", st)
	}
}

// TestMetricSnapshotMatchesRenderedMetrics: the golden gate's input must be
// the same numbers the figures render.
func TestMetricSnapshotMatchesRenderedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign grid")
	}
	s := NewSession(1)
	snap := s.MetricSnapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	w := mustWorkload(t, "519.lbm_r")
	d := s.Run(w, abi.Purecap)
	v, ok := snap["519.lbm_r/purecap"]
	if !ok {
		t.Fatal("snapshot missing 519.lbm_r/purecap")
	}
	if v["ipc"] != d.Metrics.IPC || v["seconds"] != d.Metrics.Seconds {
		t.Errorf("snapshot disagrees with session metrics: %v vs ipc=%v seconds=%v",
			v, d.Metrics.IPC, d.Metrics.Seconds)
	}
}

// TestSupervisorFingerprint pins the key-schema rules the docs state: an
// unsupervised session encodes empty, and every supervision knob changes
// the encoding.
func TestSupervisorFingerprint(t *testing.T) {
	if fp := NewSession(1).supervisorFingerprint(); fp != "" {
		t.Errorf("unsupervised fingerprint = %q, want empty", fp)
	}
	// Retries without chaos or deadline are semantically inert (nothing can
	// be transient), so they must not split the key space.
	plain := NewSession(1)
	plain.Retries = 5
	if fp := plain.supervisorFingerprint(); fp != "" {
		t.Errorf("retries-only fingerprint = %q, want empty", fp)
	}
	seen := map[string]string{}
	add := func(label string, s *Session) {
		fp := s.supervisorFingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s share fingerprint %q", prev, label, fp)
		}
		seen[fp] = label
	}
	chaos := func(seed uint64, rate float64) *Session {
		s := NewSession(1)
		s.Chaos = &faultinject.Config{Seed: seed, RatePerMUops: rate, Kinds: faultinject.AllKinds()}
		s.Retries = 2
		return s
	}
	add("chaos-1", chaos(1, 5))
	add("chaos-2", chaos(2, 5))
	add("chaos-rate", chaos(1, 20))
	deadline := NewSession(1)
	deadline.DeadlineUops = 1 << 20
	add("deadline", deadline)
	retried := chaos(1, 5)
	retried.Retries = 3
	add("chaos-retries", retried)
}
