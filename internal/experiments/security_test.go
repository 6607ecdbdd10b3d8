package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/attacks"
	"cherisim/internal/core"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
)

// TestSecurityVerdictsMatchSpec is the oracle's happy path: the full
// corpus renders with every verdict matching its expected-outcome spec, so
// runSecurity returns no error.
func TestSecurityVerdictsMatchSpec(t *testing.T) {
	out, err := runSecurity(NewSession(1))
	if err != nil {
		t.Fatalf("security verdicts diverged:\n%s\nerror: %v", out, err)
	}
	if !strings.Contains(out, "all 30 verdicts match the expected-outcome spec") {
		t.Fatalf("missing all-match summary:\n%s", out)
	}
	if !strings.Contains(out, "silent corruptions witnessed") {
		t.Fatalf("missing witnessed-corruption section:\n%s", out)
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("diverged cell in a clean run:\n%s", out)
	}
}

// TestSecurityDeterminism: rendered output must be byte-identical across
// worker-pool widths and across repeated cold invocations.
func TestSecurityDeterminism(t *testing.T) {
	render := func(jobs int) string {
		s := NewSession(1)
		s.Jobs = jobs
		out, err := runSecurity(s)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return out
	}
	serial := render(1)
	if parallel := render(4); parallel != serial {
		t.Fatalf("output depends on -jobs:\n-- jobs 1 --\n%s\n-- jobs 4 --\n%s", serial, parallel)
	}
	if again := render(1); again != serial {
		t.Fatalf("two cold invocations differ:\n-- first --\n%s\n-- second --\n%s", serial, again)
	}
}

// TestSecuritySelection: Session.Attacks restricts the matrix, and an
// invalid selection is an error, not a silently smaller gate.
func TestSecuritySelection(t *testing.T) {
	s := NewSession(1)
	s.Attacks = []string{"subobject"}
	out, err := runSecurity(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 attacks x 3 ABIs") || !strings.Contains(out, "all 3 verdicts") {
		t.Fatalf("selection not applied:\n%s", out)
	}
	s = NewSession(1)
	s.Attacks = []string{"subobject", ""}
	if _, err := runSecurity(s); err == nil || !strings.Contains(err.Error(), "segment 2") {
		t.Fatalf("stray empty selection accepted: %v", err)
	}
}

// TestSecurityStoreRoundTrip: a warm store must serve every security
// measurement from disk — zero simulations — with byte-identical rendering,
// and a SurviveCorrupted run reloaded warm must carry the same verdict and
// canary mismatch detail as the cold run.
func TestSecurityStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(1)
	s.Store = st
	cold, err := runSecurity(s)
	if err != nil {
		t.Fatal(err)
	}
	if w := st.Stats().Writes; w == 0 {
		t.Fatal("cold run persisted nothing")
	}

	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(1)
	s2.Store = st2
	warm, err := runSecurity(s2)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatalf("warm render differs from cold:\n-- cold --\n%s\n-- warm --\n%s", cold, warm)
	}
	stats := st2.Stats()
	if stats.Hits == 0 || stats.Misses != 0 || stats.Writes != 0 {
		t.Fatalf("warm run was not fully served from disk: %+v", stats)
	}
}

// runAttack executes one attack cell through a session the way runSecurity
// does (attack Configure composed in).
func runAttack(t *testing.T, s *Session, name string, ab abi.ABI) *RunData {
	t.Helper()
	a, err := attacks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.Configure = a.Configure
	return s.Run(a.Workload, ab)
}

// TestSecurityWitnessRoundTrip pins the satellite requirement at the
// RunData level: a SurviveCorrupted cell and a Trap cell reloaded from a
// warm store must classify identically to the cold run, with the canary
// witness (mismatch extent included) deep-equal.
func TestSecurityWitnessRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		attack string
		ab     abi.ABI
		want   attacks.OutcomeKind
	}{
		{"uaf", abi.Hybrid, attacks.SurviveCorrupted},
		{"uaf", abi.Purecap, attacks.Trap},
		{"subobject", abi.Purecap, attacks.SurviveCorrupted},
	} {
		dir := t.TempDir()
		st, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(1)
		s.Store = st
		coldD := runAttack(t, s, tc.attack, tc.ab)

		st2, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s2 := NewSession(1)
		s2.Store = st2
		warmD := runAttack(t, s2, tc.attack, tc.ab)
		if st2.Stats().Hits == 0 {
			t.Fatalf("%s/%s: warm run did not hit the store", tc.attack, tc.ab)
		}

		coldV := attacks.Classify(coldD.Err, coldD.Witness)
		warmV := attacks.Classify(warmD.Err, warmD.Witness)
		if coldV.Kind != tc.want {
			t.Fatalf("%s/%s: cold verdict %s, want kind %v", tc.attack, tc.ab, coldV, tc.want)
		}
		if coldV != warmV {
			t.Fatalf("%s/%s: warm verdict %s differs from cold %s", tc.attack, tc.ab, warmV, coldV)
		}
		if !reflect.DeepEqual(coldD.Witness, warmD.Witness) {
			t.Fatalf("%s/%s: witness detail diverged:\ncold: %+v\nwarm: %+v",
				tc.attack, tc.ab, coldD.Witness, warmD.Witness)
		}
		if tc.want == attacks.Trap {
			var cf, wf *core.Fault
			if !errors.As(coldD.Err, &cf) || !errors.As(warmD.Err, &wf) || cf.Kind != wf.Kind {
				t.Fatalf("%s/%s: stored fault did not round-trip: cold %v warm %v",
					tc.attack, tc.ab, coldD.Err, warmD.Err)
			}
		}
	}
}

// TestSecurityTelemetryCounters: the oracle reports its verdict tallies on
// the hub's counters.
func TestSecurityTelemetryCounters(t *testing.T) {
	hub := telemetry.New()
	s := NewSession(1)
	s.Telemetry = hub
	s.Attacks = []string{"oob-read", "uaf"}
	if _, err := runSecurity(s); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return hub.Metrics.Counter(name).Value() }
	if got := counter("attacks_run"); got != 6 {
		t.Fatalf("attacks_run = %d, want 6", got)
	}
	if got := counter("verdicts_expected"); got != 6 {
		t.Fatalf("verdicts_expected = %d, want 6", got)
	}
	if got := counter("verdicts_diverged"); got != 0 {
		t.Fatalf("verdicts_diverged = %d, want 0", got)
	}
	if got := counter("silent_corruptions"); got != 1 { // uaf/hybrid
		t.Fatalf("silent_corruptions = %d, want 1", got)
	}
}
