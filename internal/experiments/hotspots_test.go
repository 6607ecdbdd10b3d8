package experiments

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/profile"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

// TestProfileRunSingleflight: concurrent ProfileRun calls for the same pair
// share one execution (and one profile value).
func TestProfileRunSingleflight(t *testing.T) {
	s := NewSession(1)
	w, err := workloads.ByName("sqlite")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	profs := make([]interface{}, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.ProfileRun(w, abi.Purecap)
			if err != nil {
				t.Error(err)
				return
			}
			profs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if profs[i] != profs[0] {
			t.Fatal("concurrent callers did not share one profile")
		}
	}
}

// TestProfileRunWarmFromStore: a second session over the same store serves
// every profile from disk — zero misses — and the profiles (and therefore
// the rendered hotspot report) are identical.
func TestProfileRunWarmFromStore(t *testing.T) {
	dir := t.TempDir()
	w, err := workloads.ByName("sqlite")
	if err != nil {
		t.Fatal(err)
	}

	cold := storeSession(t, dir)
	pc, err := cold.ProfileRun(w, abi.Purecap)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.StoreStats()
	if st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("cold profile run: %+v, want 1 miss, 1 write", st)
	}

	warm := storeSession(t, dir)
	warm.Telemetry = telemetry.New()
	pw, err := warm.ProfileRun(w, abi.Purecap)
	if err != nil {
		t.Fatal(err)
	}
	st = warm.StoreStats()
	if st.Hits != 1 || st.Misses != 0 || st.Writes != 0 {
		t.Fatalf("warm profile run: %+v, want 1 hit, 0 misses, 0 writes", st)
	}
	if pc.Totals != pw.Totals || pc.TotalEvents != pw.TotalEvents ||
		len(pc.Functions) != len(pw.Functions) || pc.Residual != pw.Residual {
		t.Fatal("warm profile differs from cold profile")
	}
	for i := range pc.Functions {
		if pc.Functions[i] != pw.Functions[i] {
			t.Fatalf("function %d differs across the store round trip", i)
		}
	}

	// Served profiles feed the same telemetry as live ones.
	m := warm.Telemetry.Metrics
	if got := m.Counter("profile_runs").Value(); got != 1 {
		t.Errorf("profile_runs = %d, want 1", got)
	}
	if got := m.Counter("profile_functions").Value(); got != int64(len(pw.Functions)) {
		t.Errorf("profile_functions = %d, want %d", got, len(pw.Functions))
	}
	if m.Counter("profile_uops_attributed").Value() <= 0 {
		t.Error("profile_uops_attributed not incremented")
	}
	if warm.Telemetry.Profiles.Len() != 1 {
		t.Error("profile not published to the hub's profile store")
	}
}

// TestProfileRunKeepsPartialProfile: a profiled run that faults returns
// its profile up to the fault, reconciled against the run's counters,
// together with the fault — as Run keeps partial counters — and a second
// session over the same store serves both without executing.
func TestProfileRunKeepsPartialProfile(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "502.gcc_r")

	cold := storeSession(t, dir)
	pc, errc := cold.ProfileRun(w, abi.Purecap)
	var f *core.Fault
	if !errors.As(errc, &f) {
		t.Fatalf("ProfileRun error = %v, want the capability fault", errc)
	}
	if pc == nil || len(pc.Functions) == 0 {
		t.Fatal("faulting profiled run returned no partial profile")
	}
	// Attribution changes no counter, so the measured run's partial
	// counter file is the one the profile was taken from.
	if d := cold.Run(w, abi.Purecap); d.Err == nil {
		t.Fatal("measured run did not fault")
	} else if err := profile.Reconcile(*pc, &d.Counters); err != nil {
		t.Fatalf("partial profile does not reconcile: %v", err)
	}

	warm := storeSession(t, dir)
	pw, errw := warm.ProfileRun(w, abi.Purecap)
	if n := warm.Executions(); n != 0 {
		t.Fatalf("warm session executed %d times, want 0", n)
	}
	if errw == nil || errw.Error() != errc.Error() {
		t.Fatalf("warm error %v, want %v", errw, errc)
	}
	if !reflect.DeepEqual(pc, pw) {
		t.Fatal("warm partial profile differs from the cold one")
	}
}

// TestHotspotsRender: the experiment renders one table per top-down
// workload with the residual row available and a deterministic shape.
func TestHotspotsRender(t *testing.T) {
	e, err := ByID("hotspots")
	if err != nil {
		t.Fatal(err)
	}
	if e.Manual {
		t.Fatal("hotspots must render in the -all campaign")
	}
	s := NewSession(1)
	out, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.TopDownSet() {
		if !strings.Contains(out, "\n"+w.Name+":\n") {
			t.Errorf("report lacks a section for %s", w.Name)
		}
	}
	if !strings.Contains(out, "grew in") {
		t.Error("report lacks the growth-category column")
	}
	// hotspots sorts after every other renderable experiment, so the -all
	// campaign's existing prefix stays byte-identical.
	all := Renderable()
	if all[len(all)-1].ID != "hotspots" {
		t.Errorf("hotspots is not the last renderable experiment: %s", all[len(all)-1].ID)
	}
}
