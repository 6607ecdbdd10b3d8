package cherisim

import (
	"reflect"
	"testing"
)

func TestCoRunFacade(t *testing.T) {
	results, err := CoRun([]string{"llama-matmul", "541.leela_r"}, Purecap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Metrics.Cycles == 0 {
			t.Errorf("core %d: no cycles", i)
		}
	}
	if _, err := CoRun(nil, Purecap, 1); err == nil {
		t.Error("empty co-run accepted")
	}
	if _, err := CoRun(make([]string, 5), Purecap, 1); err == nil {
		t.Error("five-core co-run accepted on a quad-core SoC")
	}
}

func TestCoRunContentionVisibleThroughFacade(t *testing.T) {
	solo, err := Run("520.omnetpp_r", Purecap, 1)
	if err != nil {
		t.Fatal(err)
	}
	co, err := CoRun([]string{"520.omnetpp_r", "520.omnetpp_r", "520.omnetpp_r", "520.omnetpp_r"}, Purecap, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow := co[0].Metrics.Seconds / solo.Metrics.Seconds
	if slow < 1.01 {
		t.Errorf("4-way co-run slowdown = %.3f, want contention", slow)
	}
}

func TestRunTemporalSafetyFacade(t *testing.T) {
	res, sweeps, err := RunTemporalSafety("quickjs", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) == 0 {
		t.Fatal("no revocation sweeps for the churn-heavy interpreter")
	}
	var revoked uint64
	for _, s := range sweeps {
		revoked += s.CapsRevoked
	}
	if revoked == 0 {
		t.Error("no capabilities revoked")
	}
	// The facade measures through an experiments session, so its sweeps
	// are the session run's.
	w, err := WorkloadByName("quickjs")
	if err != nil {
		t.Fatal(err)
	}
	s := NewExperimentSession(1)
	s.Configure = func(cfg *Config) { cfg.TemporalSafety = true }
	if d := s.Run(w, Purecap); !reflect.DeepEqual(sweeps, d.Revocations) {
		t.Errorf("facade sweeps %v, session run's %v", sweeps, d.Revocations)
	}
	base, err := Run("quickjs", Purecap, 1)
	if err != nil {
		t.Fatal(err)
	}
	overhead := res.Metrics.Seconds/base.Metrics.Seconds - 1
	if overhead < 0 || overhead > 0.25 {
		t.Errorf("temporal-safety overhead = %+.1f%%, want low single digits", overhead*100)
	}
}

// TestCoRunClampsScale: CoRun measures at the same clamped scale as Run,
// so scale 0 runs the default length rather than a shortened body.
func TestCoRunClampsScale(t *testing.T) {
	zero, err := CoRun([]string{"sqlite"}, Purecap, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := CoRun([]string{"sqlite"}, Purecap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if zero[0].Counters != one[0].Counters {
		t.Fatalf("CoRun at scale 0 ran %d cycles, at scale 1 %d",
			zero[0].Metrics.Cycles, one[0].Metrics.Cycles)
	}
}
