package experiments

import (
	"strings"
	"testing"
)

// TestFig1UnderCheckHasNoDivergences runs a full figure-1 regeneration with
// the lockstep reference-model checker attached to every machine and
// requires that the optimized cache/TLB/bounds implementations never
// diverge from the naive reference models. This is the end-to-end
// differential test: every memory access and bounds operation the workload
// suite performs is double-checked.
func TestFig1UnderCheckHasNoDivergences(t *testing.T) {
	s := NewSession(1)
	s.Check = true
	defer s.CloseCheck()
	e, _ := ByID("fig1")
	out, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.CheckReport()
	if rep.Accesses == 0 {
		t.Fatal("checker observed no operations; the shadow is not attached")
	}
	if rep.Divergences != 0 {
		for _, d := range rep.First {
			t.Errorf("divergence: %s", d)
		}
		t.Fatalf("fig1 under -check: %d divergences in %d operations", rep.Divergences, rep.Accesses)
	}
	t.Logf("fig1 under -check: %d operations verified, 0 divergences", rep.Accesses)

	// The checker is observation-only: rendered output must be identical
	// to an unchecked run.
	plain := NewSession(1)
	ref, err := e.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if out != ref {
		t.Error("checked run rendered different output than unchecked run")
	}
}

// TestMulticoreUnderCheckSharesShadows exercises the shared-LLC co-run
// path: four cores feed the slices of one system-level cache, and the
// checker must shadow each LLC slice once, through the session's
// sliceSetup, while still verifying the private L1/L2 and TLBs of every
// core.
func TestMulticoreUnderCheckSharesShadows(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore co-run is slow")
	}
	s := NewSession(1)
	s.Check = true
	defer s.CloseCheck()
	e, _ := ByID("ext-multicore")
	out, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "co-run") {
		t.Errorf("unexpected ext-multicore output:\n%s", out)
	}
	rep := s.CheckReport()
	if rep.Accesses == 0 {
		t.Fatal("checker observed no operations during the co-run")
	}
	if rep.Divergences != 0 {
		for _, d := range rep.First {
			t.Errorf("divergence: %s", d)
		}
		t.Fatalf("ext-multicore under -check: %d divergences in %d operations", rep.Divergences, rep.Accesses)
	}
}
