package workloads

import (
	"errors"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/cap"
)

func TestFaultyRegistrySeparate(t *testing.T) {
	if len(Faulty()) != 2 {
		t.Fatalf("faulty set = %d, want 2 (502.gcc_r, 505.mcf_r)", len(Faulty()))
	}
	for _, w := range Faulty() {
		for _, runnable := range All() {
			if runnable.Name == w.Name {
				t.Errorf("%s leaked into the runnable set", w.Name)
			}
		}
		if _, err := ByName(w.Name); err != nil {
			t.Errorf("%s not resolvable by name: %v", w.Name, err)
		}
	}
}

// TestAppendixTable5CrashBehaviour reproduces the paper's Appendix: gcc and
// mcf compile under every ABI, run cleanly under hybrid, and trigger an
// in-address-space security exception under purecap and benchmark.
func TestAppendixTable5CrashBehaviour(t *testing.T) {
	for _, w := range Faulty() {
		m, err := execute(w, abi.Hybrid, 1)
		if err != nil {
			t.Errorf("%s/hybrid crashed: %v (paper: executes without errors)", w.Name, err)
		}
		if m.Cycles() == 0 {
			t.Errorf("%s/hybrid did no work", w.Name)
		}
		for _, a := range []abi.ABI{abi.Benchmark, abi.Purecap} {
			m, err := execute(w, a, 1)
			if err == nil {
				t.Errorf("%s/%s did not fault (paper: security exception)", w.Name, a)
				continue
			}
			isCapFault := errors.Is(err, cap.ErrTagViolation) || errors.Is(err, cap.ErrBoundsViolation)
			if !isCapFault {
				t.Errorf("%s/%s: fault class %v, want a capability violation", w.Name, a, err)
			}
			// The crash happens after real work, as on hardware (the
			// benchmarks run for a while before hitting the bad idiom).
			if m.Cycles() == 0 {
				t.Errorf("%s/%s faulted before doing any work", w.Name, a)
			}
		}
	}
}

func TestGccFaultClassIsTagViolation(t *testing.T) {
	w, _ := ByName("502.gcc_r")
	_, err := execute(w, abi.Purecap, 1)
	if !errors.Is(err, cap.ErrTagViolation) {
		t.Errorf("gcc fault = %v, want tag violation (pointer laundered through integer)", err)
	}
}

func TestMcfFaultClassIsBoundsViolation(t *testing.T) {
	w, _ := ByName("505.mcf_r")
	_, err := execute(w, abi.Purecap, 1)
	if !errors.Is(err, cap.ErrBoundsViolation) {
		t.Errorf("mcf fault = %v, want bounds violation (cross-allocation arithmetic)", err)
	}
}
