package attacks

import (
	"errors"
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/workloads"
)

// execute runs one attack under one ABI the way the security experiment
// does: default config, the attack's Configure applied, canary witnessed
// post-run.
func execute(t *testing.T, a *Attack, ab abi.ABI) (*core.Machine, error, *workloads.CanaryReport) {
	t.Helper()
	cfg := core.DefaultConfig(ab)
	if a.Configure != nil {
		a.Configure(&cfg)
	}
	m, err := workloads.ExecuteHooked(a.Workload, cfg, 1, nil)
	if m == nil {
		t.Fatalf("%s/%s: no machine", a.Name, ab)
	}
	w := a.Workload.Canary(m)
	return m, err, &w
}

// TestCorpusMatchesSpec is the oracle's ground truth: every attack, under
// every ABI, classifies to exactly its expected outcome, with trap kinds
// and µop windows checked.
func TestCorpusMatchesSpec(t *testing.T) {
	for _, a := range All() {
		for _, ab := range abi.All() {
			t.Run(a.Name+"/"+ab.String(), func(t *testing.T) {
				m, err, w := execute(t, a, ab)
				got := Classify(err, w)
				if ok, why := a.Check(ab, got, m.Uops()); !ok {
					t.Fatalf("verdict diverged: %s (err=%v witness=%+v)", why, err, w)
				}
			})
		}
	}
}

// TestCorruptionIsWitnessedNotInferred: every SurviveCorrupted expectation
// is backed by a planted canary with a concrete mismatch (BadWords > 0 and
// differing checksums), and every surviving clean run has a planted,
// matching canary. The verdict never rests on control flow alone.
func TestCorruptionIsWitnessedNotInferred(t *testing.T) {
	for _, a := range All() {
		for _, ab := range abi.All() {
			want := a.Expect(ab).Outcome.Kind
			if want != SurviveClean && want != SurviveCorrupted {
				continue
			}
			_, err, w := execute(t, a, ab)
			if err != nil {
				t.Fatalf("%s/%s: unexpected error %v", a.Name, ab, err)
			}
			if !w.Planted {
				t.Fatalf("%s/%s: no canary planted", a.Name, ab)
			}
			if want == SurviveCorrupted {
				if w.Intact || w.BadWords == 0 || w.WantSum == w.GotSum {
					t.Fatalf("%s/%s: corruption not witnessed: %+v", a.Name, ab, w)
				}
			} else if !w.Intact || w.BadWords != 0 || w.WantSum != w.GotSum {
				t.Fatalf("%s/%s: clean survival has witness mismatch: %+v", a.Name, ab, w)
			}
		}
	}
}

// TestTrapsLeaveCanaryIntact: attacks that plant before violating must
// show an intact canary when the capability ABIs trap — the trap prevented
// the corruption the hybrid run suffers.
func TestTrapsLeaveCanaryIntact(t *testing.T) {
	for _, a := range All() {
		for _, ab := range abi.All() {
			if a.Expect(ab).Outcome.Kind != Trap {
				continue
			}
			_, err, w := execute(t, a, ab)
			var f *core.Fault
			if !errors.As(err, &f) {
				t.Fatalf("%s/%s: want fault, got %v", a.Name, ab, err)
			}
			if w.Planted && !w.Intact {
				t.Fatalf("%s/%s: trapped run still corrupted the canary: %+v", a.Name, ab, w)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	planted := &workloads.CanaryReport{Planted: true, Intact: true}
	corrupt := &workloads.CanaryReport{Planted: true, Intact: false, BadWords: 1}
	cases := []struct {
		name string
		err  error
		w    *workloads.CanaryReport
		want Outcome
	}{
		{"fault tag", &core.Fault{Kind: core.KindTag}, planted, Outcome{Kind: Trap, Fault: core.KindTag}},
		{"fault bounds no witness", &core.Fault{Kind: core.KindBounds}, nil, Outcome{Kind: Trap, Fault: core.KindBounds}},
		{"other error", errors.New("boom"), planted, Outcome{Kind: Aborted, Detail: "boom"}},
		{"clean", nil, planted, Outcome{Kind: SurviveClean}},
		{"corrupted", nil, corrupt, Outcome{Kind: SurviveCorrupted}},
		{"nil witness", nil, nil, Outcome{Kind: Aborted, Detail: "no canary witness"}},
		{"unplanted witness", nil, &workloads.CanaryReport{}, Outcome{Kind: Aborted, Detail: "no canary witness"}},
	}
	for _, tc := range cases {
		if got := Classify(tc.err, tc.w); got != tc.want {
			t.Errorf("%s: Classify = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[string]Outcome{
		"clean":        {Kind: SurviveClean},
		"corrupted":    {Kind: SurviveCorrupted},
		"trap(bounds)": {Kind: Trap, Fault: core.KindBounds},
		"aborted(x)":   {Kind: Aborted, Detail: "x"},
		"aborted":      {Kind: Aborted},
	}
	for want, o := range cases {
		if got := o.String(); got != want {
			t.Errorf("Outcome%+v.String() = %q, want %q", o, got, want)
		}
	}
}

func TestCheckRejectsWrongFaultKind(t *testing.T) {
	a, err := ByName("oob-write")
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := a.Check(abi.Purecap, Outcome{Kind: Trap, Fault: core.KindTag}, 1<<20); ok {
		t.Fatal("wrong fault kind accepted")
	}
	if ok, why := a.Check(abi.Purecap, Outcome{Kind: Trap, Fault: core.KindBounds}, 1); ok || !strings.Contains(why, "dressing window") {
		t.Fatalf("early trap accepted: ok=%v why=%q", ok, why)
	}
	if ok, _ := a.Check(abi.Hybrid, Outcome{Kind: SurviveClean}, 0); ok {
		t.Fatal("clean survival accepted where corruption is expected")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(nil) = %d attacks, %v", len(all), err)
	}
	got, err := Select([]string{"uaf", "oob-read"})
	if err != nil {
		t.Fatal(err)
	}
	// Corpus order, independent of request order.
	if len(got) != 2 || got[0].Name != "oob-read" || got[1].Name != "uaf" {
		t.Fatalf("Select = %v", []string{got[0].Name, got[1].Name})
	}
	if _, err := Select([]string{"uaf", ""}); err == nil || !strings.Contains(err.Error(), "segment 2") {
		t.Fatalf("empty segment accepted: %v", err)
	}
	if _, err := Select([]string{"nonesuch"}); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

// TestCorpusRegistration: the attacks ride the workloads registry but stay
// hidden from the campaign grid, and each carries a Canary hook.
func TestCorpusRegistration(t *testing.T) {
	if n := len(All()); n != 10 {
		t.Fatalf("corpus has %d attacks, want 10", n)
	}
	for _, name := range workloads.Names() {
		if strings.HasPrefix(name, Prefix) {
			t.Fatalf("attack %q visible in workloads.Names()", name)
		}
	}
	for _, a := range All() {
		w, err := workloads.ByName(Prefix + a.Name)
		if err != nil {
			t.Fatalf("attack %q not resolvable: %v", a.Name, err)
		}
		if w.Canary == nil {
			t.Fatalf("attack %q has no Canary witness", a.Name)
		}
		if a.CWE == "" || !strings.HasPrefix(a.CWE, "CWE-") {
			t.Fatalf("attack %q has no CWE class", a.Name)
		}
	}
}

// TestCanaryWitnessDetectsSingleBit: the checksum witness must notice a
// one-bit flip anywhere in the canary region.
func TestCanaryWitnessDetectsSingleBit(t *testing.T) {
	m := core.NewMachine(core.DefaultConfig(abi.Hybrid))
	var base core.Ptr
	err := m.Run(func(m *core.Machine) {
		m.Func("canary_unit", 256, 64)
		base = plantCanary(m, 16, 0xfeed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := CheckCanary(m); !w.Planted || !w.Intact {
		t.Fatalf("fresh canary not intact: %+v", w)
	}
	old := m.Mem.ReadUint(uint64(base)+72, 8)
	m.Mem.WriteUint(uint64(base)+72, old^(1<<17), 8)
	w := CheckCanary(m)
	if w.Intact || w.BadWords != 1 || w.FirstBad != 72 {
		t.Fatalf("flip not witnessed: %+v", w)
	}
	if w.WantSum == w.GotSum {
		t.Fatal("checksums still agree after flip")
	}
}
