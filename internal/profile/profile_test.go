package profile_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/profile"
	"cherisim/internal/topdown"
	"cherisim/internal/workloads"
)

// TestConservationEveryWorkloadABI is the attribution-conservation gate:
// for every registered workload under every ABI, the per-function category
// sums (plus the residual) must reconcile exactly with the whole-run
// counter file, and overlaying the profile-reconstructed stall/cycle
// counters on the real counter file must leave topdown.Analyze unchanged —
// the per-function split carries exactly the information the paper's
// whole-run top-down breakdown sees.
func TestConservationEveryWorkloadABI(t *testing.T) {
	for _, w := range workloads.All() {
		for _, a := range abi.All() {
			w, a := w, a
			t.Run(fmt.Sprintf("%s/%s", w.Name, a), func(t *testing.T) {
				t.Parallel()
				m, err := workloads.ExecuteHooked(w, core.DefaultConfig(a), 1, (*core.Machine).EnableProfile)
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				p := m.AttributionProfile()
				if len(p.Functions) == 0 {
					t.Fatal("empty attribution profile")
				}
				if err := profile.Reconcile(p, &m.C); err != nil {
					t.Fatal(err)
				}
				// Overlay the reconstruction and require an identical
				// top-down breakdown.
				c2 := m.C
				for ev, v := range profile.ReconstructCounters(p.Totals) {
					c2[ev] = v
				}
				if got, want := topdown.Analyze(&c2), topdown.Analyze(&m.C); got != want {
					t.Errorf("topdown breakdown diverged:\nprofile: %+v\ncounters: %+v", got, want)
				}
			})
		}
	}
}

// TestReconcileDetectsLoss ensures Reconcile actually fails when cycles go
// missing (it is the conservation oracle, so it must not be vacuous).
func TestReconcileDetectsLoss(t *testing.T) {
	m := runSmallWorkload(t, abi.Purecap)
	p := m.AttributionProfile()
	p.Functions[0].Categories[core.AttrCoreBound] += 1000
	if err := profile.Reconcile(p, &m.C); err == nil {
		t.Error("Reconcile accepted a tampered profile")
	}
	p = m.AttributionProfile()
	p.TotalEvents[core.EvL1DRefill]++
	if err := profile.Reconcile(p, &m.C); err == nil {
		t.Error("Reconcile accepted a tampered event total")
	}
}

func runSmallWorkload(t *testing.T, a abi.ABI) *core.Machine {
	t.Helper()
	w, err := workloads.ByName("sqlite")
	if err != nil {
		t.Fatal(err)
	}
	m, err := workloads.ExecuteHooked(w, core.DefaultConfig(a), 1, (*core.Machine).EnableProfile)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func threeABIProfiles(t *testing.T) [3]core.AttributionProfile {
	t.Helper()
	var profs [3]core.AttributionProfile
	for _, a := range abi.All() {
		profs[a] = runSmallWorkload(t, a).AttributionProfile()
	}
	return profs
}

func TestDiffThreeABIs(t *testing.T) {
	diffs := profile.Diff(threeABIProfiles(t))
	if len(diffs) == 0 {
		t.Fatal("empty diff")
	}
	var residual, positive bool
	for i, d := range diffs {
		if d.Name == core.ResidualName {
			residual = true
		}
		if d.Delta > 0 {
			positive = true
			if d.Growth == "none" {
				t.Errorf("%s grew %.0f cycles but no growth category", d.Name, d.Delta)
			}
		}
		if i > 0 && diffs[i-1].Delta < d.Delta {
			t.Fatalf("diff not sorted by delta: %v then %v", diffs[i-1].Delta, d.Delta)
		}
		for _, a := range abi.All() {
			// The residual may dip fractionally below zero: its retiring
			// total truncates the aux-µop fraction the per-function
			// charges carried. Real functions never can.
			min := 0.0
			if d.Name == core.ResidualName {
				min = -1
			}
			if d.Cycles[a] < min {
				t.Errorf("%s: cycles %.3f under %s", d.Name, d.Cycles[a], a)
			}
		}
	}
	if !residual {
		t.Error("diff lacks the residual pseudo-function")
	}
	if !positive {
		t.Error("no function grew under purecap — implausible for sqlite")
	}
}

func TestWriteFoldedParses(t *testing.T) {
	m := runSmallWorkload(t, abi.Purecap)
	var buf bytes.Buffer
	if err := profile.WriteFolded(&buf, "sqlite", abi.Purecap, m.AttributionProfile()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("no folded stacks")
	}
	var total uint64
	for _, ln := range lines {
		sp := strings.LastIndexByte(ln, ' ')
		if sp < 0 {
			t.Fatalf("no count separator in %q", ln)
		}
		stack, count := ln[:sp], ln[sp+1:]
		frames := strings.Split(stack, ";")
		if len(frames) != 4 {
			t.Fatalf("want workload;abi;function;category, got %q", stack)
		}
		if frames[0] != "sqlite" || frames[1] != abi.Purecap.String() {
			t.Fatalf("bad stack prefix in %q", stack)
		}
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil || n == 0 {
			t.Fatalf("bad count %q in %q", count, ln)
		}
		total += n
	}
	// Rounded per-category cycles must land within len(lines)/2 of the
	// run's cycle count (each line rounds by at most 0.5).
	cycles := m.Cycles()
	slack := uint64(len(lines))/2 + 1
	if total+slack < cycles || total > cycles+slack {
		t.Errorf("folded total %d vs run cycles %d (slack %d)", total, cycles, slack)
	}
}

// TestPprofDecodes writes a multi-run pprof profile and validates it with
// the real consumer, `go tool pprof -raw` (skipped if the go tool is
// unavailable, e.g. a stripped test environment).
func TestPprofDecodes(t *testing.T) {
	profs := threeABIProfiles(t)
	var pw profile.Pprof
	for _, a := range abi.All() {
		pw.Add("sqlite", a, profs[a])
	}
	if pw.SampleCount() == 0 {
		t.Fatal("no samples accumulated")
	}
	path := filepath.Join(t.TempDir(), "hotspots.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-raw", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -raw failed: %v\n%s", err, out)
	}
	raw := string(out)
	for _, want := range []string{"cycles", "uops", "sqlite", "purecap", core.ResidualName} {
		if !strings.Contains(raw, want) {
			t.Errorf("pprof -raw output lacks %q", want)
		}
	}
}
