package soc

import (
	"runtime"
	"strings"
	"testing"

	"cherisim/internal/telemetry"
)

// TestCoRunTelemetrySpans asserts an observed co-run records the
// topo-corun span with one child span per core on its own track, counts
// the co-run and its scheduling quanta, and — the determinism contract —
// produces bit-identical counters and fabric accounting to an unobserved
// co-run.
func TestCoRunTelemetrySpans(t *testing.T) {
	topo := Topology{Kind: TopoMesh, Cores: 2}
	specs := func() []CoreSpec { return topoSpecs(2, streamBody(256<<10, 20000)) }
	plain, err := RunTopology(topo, specs())
	if err != nil {
		t.Fatal(err)
	}

	hub := telemetry.New()
	observed, err := RunTopologyObserved(topo, specs(), runtime.GOMAXPROCS(0), hub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if topoFingerprint(plain) != topoFingerprint(observed) {
		t.Fatal("counters diverged under observation")
	}

	spans := hub.Spans.Snapshot()
	tracks := hub.Spans.TrackNames()
	var corunID uint64
	cores := 0
	for _, sp := range spans {
		if sp.Name == "topo-corun" {
			corunID = sp.ID
		}
	}
	if corunID == 0 {
		t.Fatal("topo-corun span missing")
	}
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "core-") {
			continue
		}
		cores++
		if sp.Parent != corunID {
			t.Fatalf("%s parented to %d, want topo-corun %d", sp.Name, sp.Parent, corunID)
		}
		if want := "soc-" + sp.Name; tracks[sp.Track] != want {
			t.Fatalf("%s on track %q, want %q", sp.Name, tracks[sp.Track], want)
		}
	}
	if cores != 2 {
		t.Fatalf("%d core spans, want 2", cores)
	}
	if hub.Metrics.Counter("soc_topo_coruns").Value() != 1 {
		t.Fatal("soc_topo_coruns not counted")
	}
	if hub.Metrics.Counter("soc_quanta_scheduled").Value() < 2 {
		t.Fatal("scheduling quanta not counted")
	}
}
