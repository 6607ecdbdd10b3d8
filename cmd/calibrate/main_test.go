package main

import (
	"strings"
	"testing"

	"cherisim/internal/workloads"
)

// TestSelectWorkloads pins -w resolution: empty means the whole catalogue,
// a catalogue name selects that workload, and an unknown name or one
// outside the catalogue is an error instead of an empty table.
func TestSelectWorkloads(t *testing.T) {
	if ws, err := selectWorkloads(""); err != nil || len(ws) != len(workloads.All()) {
		t.Fatalf(`selectWorkloads("") = %d workloads, %v; want the catalogue`, len(ws), err)
	}
	if ws, err := selectWorkloads("sqlite"); err != nil || len(ws) != 1 || ws[0].Name != "sqlite" {
		t.Fatalf(`selectWorkloads("sqlite") = %v, %v`, ws, err)
	}
	for name, want := range map[string]string{"sqlit": "unknown workload", "502.gcc_r": "calibration covers"} {
		if _, err := selectWorkloads(name); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("selectWorkloads(%q) error = %v, want one containing %q", name, err, want)
		}
	}
}
