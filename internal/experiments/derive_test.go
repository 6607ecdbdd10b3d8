package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/pmu"
	"cherisim/internal/profile"
	"cherisim/internal/resultstore"
	"cherisim/internal/workloads"
)

// execution runs w under session s's configuration for ABI a on a fresh
// machine, outside the session's memo, store and derivation, on one slot
// of fleet: the reference a derived result must equal.
func execution(fleet *Fleet, s *Session, w *workloads.Workload, a abi.ABI, profiled bool) (*resultstore.Entry, error) {
	ids := fleet.acquire(1)
	defer fleet.release(ids)
	cfg := s.effectiveConfig(a)
	if profiled {
		return s.profileOnce(s.profileStoreKey(w, a, cfg), w, a, cfg, nil)
	}
	e, _ := s.executeOnce(s.runStoreKey(w, a, cfg), w, a, cfg, 0, nil, nil)
	return e, nil
}

// runMismatch names the first difference between two runs ("" when they
// are deeply equal): a counter, the error text, or some other field.
func runMismatch(got, want *RunData) string {
	for i := range got.Counters {
		if got.Counters[i] != want.Counters[i] {
			return fmt.Sprintf("%s = %d, executed %d", pmu.Event(i), got.Counters[i], want.Counters[i])
		}
	}
	if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
		return fmt.Sprintf("error %q, executed %q", fmt.Sprint(got.Err), fmt.Sprint(want.Err))
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("run %+v, executed %+v", *got, *want)
	}
	return ""
}

// TestDerivedRunsEqualExecuted proves the derivation: for every catalogue
// workload, including the Appendix Table 5 ones that fault, the
// purecap-benchmark run and the purecap run under TracksPCCBounds derived
// from one purecap execution equal executing them — the whole RunData
// (counters, heap, µops, attempts, error). The derived purecap-benchmark
// profile must equal the executed one and reconcile with the derived
// counters.
func TestDerivedRunsEqualExecuted(t *testing.T) {
	if testing.Short() {
		t.Skip("executes every catalogue workload five times")
	}
	fleet := NewFleet(2)
	ws := append(workloads.All(), workloads.Faulty()...)
	fanOut(len(ws), func(i int) error {
		w := ws[i]
		s := NewSession(1)
		s.SharePool(fleet)
		tracking := s.derive()
		tracking.Configure = func(c *core.Config) { c.TracksPCCBounds = true }

		bench := s.Run(w, abi.Benchmark)
		track := tracking.Run(w, abi.Purecap)
		prof, profErr := s.ProfileRun(w, abi.Benchmark)
		if x, d := s.Executions(), s.Derived(); x != 2 || d != 3 {
			t.Errorf("%s: %d executions and %d derivations, want 2 (purecap run and profile) and 3", w.Name, x, d)
		}

		for _, c := range []struct {
			name string
			sess *Session
			a    abi.ABI
			got  *RunData
		}{{"purecap-benchmark", s, abi.Benchmark, bench}, {"purecap+TracksPCCBounds", tracking, abi.Purecap, track}} {
			e, _ := execution(fleet, c.sess, w, c.a, false)
			if diff := runMismatch(c.got, runDataFromEntry(e)); diff != "" {
				t.Errorf("%s %s: derived %s", w.Name, c.name, diff)
			}
		}

		ref, err := execution(fleet, s, w, abi.Benchmark, true)
		if err != nil {
			t.Errorf("%s: executed profile: %v", w.Name, err)
			return nil
		}
		if !reflect.DeepEqual(prof, ref.Profile) {
			t.Errorf("%s: derived purecap-benchmark profile differs from the executed one", w.Name)
		}
		want := "<nil>"
		if err := ref.Error.Reconstruct(); err != nil {
			want = fmt.Sprintf("profile %s/%s: %v", w.Name, abi.Benchmark, err)
		}
		if got := fmt.Sprint(profErr); got != want {
			t.Errorf("%s: derived profile error %q, executed %q", w.Name, got, want)
		}
		if err := profile.Reconcile(*prof, &bench.Counters); err != nil {
			t.Errorf("%s: derived profile does not reconcile with the derived counters: %v", w.Name, err)
		}
		return nil
	})
}

// TestCapabilityRunsExecuteOnce: a fresh session executes the 60-pair grid
// in 40 executions — hybrid and purecap — and derives the 20
// purecap-benchmark runs, whichever ABI it is asked for first and whether
// it runs serially or through Prefetch.
func TestCapabilityRunsExecuteOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the grid three times")
	}
	grid := CampaignGrid()
	ordered := func(abis ...abi.ABI) []Pair {
		var out []Pair
		for _, a := range abis {
			for _, p := range grid {
				if p.ABI == a {
					out = append(out, p)
				}
			}
		}
		return out
	}
	serial := func(pairs []Pair) func(*Session) {
		return func(s *Session) {
			for _, p := range pairs {
				s.Run(p.Workload, p.ABI)
			}
		}
	}
	for _, c := range []struct {
		name string
		run  func(*Session)
	}{
		{"serial purecap first", serial(ordered(abi.Purecap, abi.Benchmark, abi.Hybrid))},
		{"serial benchmark first", serial(ordered(abi.Benchmark, abi.Purecap, abi.Hybrid))},
		{"prefetch jobs 2", func(s *Session) { s.Jobs = 2; s.Prefetch(grid) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s := NewSession(1)
			c.run(s)
			if x, d := s.Executions(), s.Derived(); x != 40 || d != 20 {
				t.Fatalf("%d executions and %d derivations, want 40 and 20", x, d)
			}
		})
	}
}

// TestAblationPredictorDerivesFromParent: the predictor ablation's
// PCC-tracking purecap runs live on a derived session, which shares the
// parent's table of PCC-free results, so after the experiment's Pairs
// prefetch only the 14 base runs execute and the 7 ablated ones are
// derived.
func TestAblationPredictorDerivesFromParent(t *testing.T) {
	e, err := ByID("ablation-predictor")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(1)
	s.Prefetch(e.Pairs())
	if _, err := e.Run(s); err != nil {
		t.Fatal(err)
	}
	if x, d := s.Executions(), s.Derived(); x != 14 || d != 7 {
		t.Fatalf("%d executions and %d derivations after ablation-predictor, want 14 and 7", x, d)
	}
}

// TestDerivedEntriesPersist: a cold session with a store saves each
// derived result under its own key, as the entry executing it would store,
// and a warm session serves it from there without executing or deriving.
func TestDerivedEntriesPersist(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("sqlite")
	if err != nil {
		t.Fatal(err)
	}
	cold := NewSession(1)
	cold.Store = st
	bench := cold.Run(w, abi.Benchmark)
	prof, err := cold.ProfileRun(w, abi.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	if x, d := cold.Executions(), cold.Derived(); x != 2 || d != 2 {
		t.Fatalf("cold: %d executions and %d derivations, want 2 and 2", x, d)
	}
	if n := cold.StoreStats().Writes; n != 4 {
		t.Fatalf("cold: %d store writes, want 4 (two executed, two derived)", n)
	}
	cfg := cold.effectiveConfig(abi.Benchmark)
	runKey, profKey := cold.runStoreKey(w, abi.Benchmark, cfg), cold.profileStoreKey(w, abi.Benchmark, cfg)
	for _, k := range []resultstore.Key{runKey, profKey} {
		if _, ok := st.Load(k); !ok {
			t.Fatalf("no stored entry under the derived %s key", k.Kind)
		}
	}

	warm := NewSession(1)
	warm.Store = st
	if got := warm.Run(w, abi.Benchmark); !reflect.DeepEqual(got, bench) {
		t.Error("warm purecap-benchmark run differs from the derived one")
	}
	if got, err := warm.ProfileRun(w, abi.Benchmark); err != nil || !reflect.DeepEqual(got, prof) {
		t.Errorf("warm purecap-benchmark profile differs from the derived one (err %v)", err)
	}
	if x, d := warm.Executions(), warm.Derived(); x != 0 || d != 0 {
		t.Fatalf("warm: %d executions and %d derivations, want 0 and 0", x, d)
	}
}

// TestCheckDerivedRecordsDivergence feeds the -check oracle a PCC-free
// result equal to the execution, then one with a single counter changed:
// each comparison is one checked operation, and only the second diverges,
// on component "derive".
func TestCheckDerivedRecordsDivergence(t *testing.T) {
	s := NewSession(1)
	s.Check = true
	defer s.CloseCheck()
	w, err := workloads.ByName("sqlite")
	if err != nil {
		t.Fatal(err)
	}
	var c pmu.Counters
	for i := range c {
		c[i] = uint64(1000 + i)
	}
	executed := &resultstore.Entry{Key: s.runStoreKey(w, abi.Benchmark, s.effectiveConfig(abi.Benchmark)), Attempts: 1}
	executed.SetCounters(&c)
	same := &resultstore.Entry{Attempts: 1}
	same.SetCounters(&c)
	c[pmu.STALL_FRONTEND]++
	changed := &resultstore.Entry{Attempts: 1}
	changed.SetCounters(&c)

	s.checkDerived(executed, same)
	if rep := s.CheckReport(); rep.Accesses != 1 || rep.Divergences != 0 {
		t.Fatalf("equal results: %d operations, %d divergences; want 1 and 0", rep.Accesses, rep.Divergences)
	}
	s.checkDerived(executed, changed)
	rep := s.CheckReport()
	if rep.Accesses != 2 || rep.Divergences != 1 || len(rep.First) != 1 {
		t.Fatalf("changed counter: %d operations, %d divergences; want 2 and 1", rep.Accesses, rep.Divergences)
	}
	if d := rep.First[0]; d.Component != "derive" || !strings.Contains(d.Detail, "STALL_FRONTEND") {
		t.Fatalf("divergence %s, want component derive naming STALL_FRONTEND", d)
	}
}
