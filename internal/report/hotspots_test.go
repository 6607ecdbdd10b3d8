package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/profile"
	"cherisim/internal/workloads"
)

func sampleHotspots(t *testing.T) *HotspotSet {
	t.Helper()
	w, err := workloads.ByName("sqlite")
	if err != nil {
		t.Fatal(err)
	}
	var profs [3]core.AttributionProfile
	for _, a := range abi.All() {
		m, err := workloads.ExecuteHooked(w, core.DefaultConfig(a), 1, (*core.Machine).EnableProfile)
		if err != nil {
			t.Fatal(err)
		}
		profs[a] = m.AttributionProfile()
	}
	h := NewHotspotSet(1)
	h.Add(w.Name, profile.Diff(profs))
	return h
}

func TestHotspotJSONRoundTrip(t *testing.T) {
	h := sampleHotspots(t)
	if len(h.Rows) == 0 {
		t.Fatal("no hotspot rows")
	}
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got HotspotSet
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("hotspot JSON does not parse: %v", err)
	}
	if got.Tool != "cherisim" || got.Scale != 1 || len(got.Rows) != len(h.Rows) {
		t.Fatalf("round trip lost provenance: %+v", got)
	}
	// float64 JSON round-trips bit-exactly (shortest representation), so the
	// decoded rows must equal the originals.
	for i := range h.Rows {
		if got.Rows[i] != h.Rows[i] {
			t.Fatalf("row %d changed across the round trip:\n%+v\n%+v", i, got.Rows[i], h.Rows[i])
		}
	}
}

func TestHotspotCSV(t *testing.T) {
	h := sampleHotspots(t)
	var buf bytes.Buffer
	if err := h.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("hotspot CSV does not parse: %v", err)
	}
	if len(rows) != len(h.Rows)+1 {
		t.Fatalf("CSV has %d rows, want %d", len(rows), len(h.Rows)+1)
	}
	wantCols := 2 + 3*len(abi.All()) + 4
	for i, r := range rows {
		if len(r) != wantCols {
			t.Fatalf("row %d has %d columns, want %d", i, len(r), wantCols)
		}
	}
	if rows[0][0] != "workload" || rows[0][1] != "function" {
		t.Fatalf("unexpected header: %v", rows[0])
	}
	var residual bool
	for _, r := range rows[1:] {
		if r[0] != "sqlite" {
			t.Fatalf("row workload %q", r[0])
		}
		if r[1] == core.ResidualName {
			residual = true
		}
	}
	if !residual {
		t.Error("CSV lacks the residual pseudo-function row")
	}
}
