package report

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/pmu"
	"cherisim/internal/workloads"
)

func sampleDataset(t *testing.T) *Dataset {
	t.Helper()
	d := NewDataset(1)
	w, err := workloads.ByName("519.lbm_r")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []abi.ABI{abi.Hybrid, abi.Purecap} {
		m, err := workloads.ExecuteHooked(w, core.DefaultConfig(a), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.Add(NewSample(w.Name, a, &m.C))
	}
	return d
}

func TestJSONRoundTrip(t *testing.T) {
	d := sampleDataset(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "cherisim" || got.Scale != 1 || len(got.Samples) != 2 {
		t.Fatalf("round trip lost metadata: %+v", got)
	}
	s := got.Samples[0]
	if s.Workload != "519.lbm_r" || s.ABI != "hybrid" {
		t.Errorf("sample identity lost: %s/%s", s.Workload, s.ABI)
	}
	if s.Metrics.IPC <= 0 || s.Events["CPU_CYCLES"] == 0 {
		t.Error("measurement data lost in round trip")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestMetricsCSVShape(t *testing.T) {
	d := sampleDataset(t)
	var buf bytes.Buffer
	if err := d.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 samples
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "workload" || rows[0][2] != "seconds" {
		t.Errorf("header = %v", rows[0][:3])
	}
	for _, r := range rows[1:] {
		if len(r) != len(rows[0]) {
			t.Error("ragged CSV row")
		}
	}
	if rows[1][1] != "hybrid" || rows[2][1] != "purecap" {
		t.Errorf("abi column wrong: %s/%s", rows[1][1], rows[2][1])
	}
}

func TestEventsCSVCoversAllEvents(t *testing.T) {
	d := sampleDataset(t)
	var buf bytes.Buffer
	if err := d.WriteEventsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantCols := 2 + int(pmu.NumEvents)
	if len(rows[0]) != wantCols {
		t.Fatalf("header columns = %d, want %d", len(rows[0]), wantCols)
	}
	// Every value parses as an unsigned integer.
	for _, cell := range rows[1][2:] {
		for _, ch := range cell {
			if ch < '0' || ch > '9' {
				t.Fatalf("non-numeric event cell %q", cell)
			}
		}
	}
}

// TestEventsCSVMissingEventsRoundTrip pins the missing-event fix through
// the JSON path: a dataset decoded from a JSON written before a PMU event
// existed must export that event as an empty cell — never a fabricated
// 0 — and WriteEventsCSV must return an error naming every missing event.
func TestEventsCSVMissingEventsRoundTrip(t *testing.T) {
	d := sampleDataset(t)
	// Simulate an old-format JSON: strip two events from the first sample
	// before the write/read round trip, as if the dataset predated them.
	dropped := []string{"PCC_STALL_CYCLES", "BAD_SPEC_CYCLES"}
	for _, n := range dropped {
		delete(d.Samples[0].Events, n)
	}
	var js bytes.Buffer
	if err := d.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = got.WriteEventsCSV(&buf)
	if err == nil {
		t.Fatal("missing events silently exported (pre-fix behaviour emitted 0)")
	}
	for _, n := range dropped {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error does not name missing event %s: %v", n, err)
		}
	}

	rows, rerr := csv.NewReader(&buf).ReadAll()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (CSV must still be written in full)", len(rows))
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	for _, n := range dropped {
		if cell := rows[1][col[n]]; cell != "" {
			t.Errorf("missing event %s exported as %q, want empty cell", n, cell)
		}
		if cell := rows[2][col[n]]; cell == "" {
			t.Errorf("event %s present in sample 2 but exported empty", n)
		}
	}
	// A complete dataset still round-trips error-free.
	var clean bytes.Buffer
	if err := sampleDataset(t).WriteEventsCSV(&clean); err != nil {
		t.Fatalf("complete dataset errored: %v", err)
	}
}

func TestMetricVectorMatchesCSVColumns(t *testing.T) {
	d := sampleDataset(t)
	s := d.Samples[0]
	v := MetricVector(&s.Metrics, &s.Topdown)
	names := MetricNames()
	if len(v) != len(names) {
		t.Fatalf("vector has %d metrics, names list %d", len(v), len(names))
	}
	for _, n := range names {
		if _, ok := v[n]; !ok {
			t.Errorf("vector missing metric %s", n)
		}
	}
	if v["seconds"] != s.Metrics.Seconds || v["backend_bound"] != s.Topdown.BackendBound {
		t.Error("vector values disagree with the sample")
	}
}
