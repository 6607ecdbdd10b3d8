package resultstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/pmu"
	"cherisim/internal/workloads"
)

func testKey(name string) Key {
	return Key{
		Kind:   KindRun,
		Name:   name,
		ABI:    "purecap",
		Scale:  1,
		Config: ConfigFingerprint(core.DefaultConfig(abi.Purecap)),
		Model:  ModelFingerprint(),
	}
}

func testEntry(name string) *Entry {
	var c pmu.Counters
	for i := range c {
		c[i] = uint64(1000 + i*7)
	}
	e := &Entry{Key: testKey(name), Attempts: 1}
	e.SetCounters(&c)
	e.Heap = alloc.Stats{BrkBytes: 4096, Allocs: 12}
	e.Uops = 123456
	return e
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry("roundtrip")
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(want.Key)
	if !ok {
		t.Fatal("saved entry did not load")
	}
	c, ok := got.CountersFile()
	if !ok {
		t.Fatal("counters lost")
	}
	wc, _ := want.CountersFile()
	if c != wc {
		t.Errorf("counters differ: got %v want %v", c, wc)
	}
	if got.Heap != want.Heap || got.Uops != want.Uops || got.Attempts != want.Attempts {
		t.Errorf("fields differ: got %+v want %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %s", st)
	}
}

// TestErrorRoundTrip pins the property warm chaos campaigns depend on: a
// reconstructed error must satisfy the same errors.As checks and render
// the same Error() string as the original.
func TestErrorRoundTrip(t *testing.T) {
	fault := &core.Fault{
		Kind: core.KindTag, PC: 0x4000, Addr: 0x1234, Op: "load",
		Transient: true, Cause: errors.New("tag cleared by injector"),
	}
	cases := []error{
		fault,
		&core.DeadlineError{Uops: 5_000_000, Budget: 4_000_000},
		&core.PanicError{Workload: "quickjs", Value: "boom", Uops: 77},
		errors.New("plain failure"),
	}
	for _, orig := range cases {
		se := EncodeError(orig)
		back := se.Reconstruct()
		if back.Error() != orig.Error() {
			t.Errorf("Error() drifted: %q -> %q", orig.Error(), back.Error())
		}
		var f1, f2 *core.Fault
		if errors.As(orig, &f1) != errors.As(back, &f2) {
			t.Errorf("errors.As(*core.Fault) drifted for %q", orig)
		} else if f1 != nil && (f1.Kind != f2.Kind || f1.PC != f2.PC || f1.Transient != f2.Transient) {
			t.Errorf("fault fields drifted: %+v -> %+v", f1, f2)
		}
		var d1, d2 *core.DeadlineError
		if errors.As(orig, &d1) != errors.As(back, &d2) {
			t.Errorf("errors.As(*core.DeadlineError) drifted for %q", orig)
		}
		var p1, p2 *core.PanicError
		if errors.As(orig, &p1) != errors.As(back, &p2) {
			t.Errorf("errors.As(*core.PanicError) drifted for %q", orig)
		}
	}
	if EncodeError(nil) != nil || (*StoredError)(nil).Reconstruct() != nil {
		t.Error("nil error did not round-trip to nil")
	}
}

// TestWitnessRoundTrip pins the security gate's warm-cache property: a
// stored attack run's canary witness — including the mismatch detail of a
// silently corrupted survival — loads back exactly, and entries without
// one stay nil.
func TestWitnessRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry("attack:uaf")
	want.Witness = &workloads.CanaryReport{
		Planted: true, Intact: false,
		Base: 0x40_0000_1000, Words: 32, Seed: 0xc0ffee03,
		WantSum: 111, GotSum: 222, BadWords: 2, FirstBad: 16,
	}
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(want.Key)
	if !ok {
		t.Fatal("saved entry did not load")
	}
	if got.Witness == nil || *got.Witness != *want.Witness {
		t.Fatalf("witness drifted: got %+v want %+v", got.Witness, want.Witness)
	}

	plain := testEntry("no-witness")
	if err := s.Save(plain); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Load(plain.Key); !ok || got.Witness != nil {
		t.Fatalf("witness appeared from nowhere: %+v", got.Witness)
	}
}

// TestMachineFlag pins the nil-machine distinction: zero counters with
// Machine=false must not load as a measured all-zero counter file.
func TestMachineFlag(t *testing.T) {
	s, _ := Open(t.TempDir())
	e := &Entry{Key: testKey("no-machine")}
	e.Error = EncodeError(errors.New("died before machine construction"))
	if err := s.Save(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(e.Key)
	if !ok {
		t.Fatal("entry did not load")
	}
	if _, ok := got.CountersFile(); ok {
		t.Error("machine-less entry produced a counter file")
	}
}

func TestCoRunUnit(t *testing.T) {
	s, _ := Open(t.TempDir())
	e := &Entry{Key: Key{Kind: KindCoRun, Name: "co/x2", Scale: 1, Config: "a+b", Model: ModelFingerprint()}}
	e.Cores = make([]CoreResult, 2)
	var c pmu.Counters
	c[0] = 42
	e.Cores[0].SetCounters(&c)
	e.Cores[1].Error = EncodeError(&core.DeadlineError{Uops: 10, Budget: 5})
	if err := s.Save(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(e.Key)
	if !ok || len(got.Cores) != 2 {
		t.Fatalf("co-run unit lost: ok=%v cores=%d", ok, len(got.Cores))
	}
	if cf, ok := got.Cores[0].CountersFile(); !ok || cf[0] != 42 {
		t.Error("core 0 counters lost")
	}
	var de *core.DeadlineError
	if !errors.As(got.Cores[1].Error.Reconstruct(), &de) {
		t.Error("core 1 error lost")
	}
}

// corrupt loads the entry file for k, applies f, and writes it back.
func corruptFile(t *testing.T, s *Store, k Key, f func([]byte) []byte) {
	t.Helper()
	path := s.Path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionIsAMiss covers the tentpole's robustness rule: a
// truncated, bit-flipped or malformed entry is a miss (counted as corrupt),
// never an error or a wrong result — and a re-save replaces it.
func TestCorruptionIsAMiss(t *testing.T) {
	cases := []struct {
		name string
		f    func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flip", func(b []byte) []byte {
			// Flip a bit inside the body payload (past the envelope header).
			i := len(b) / 2
			b[i] ^= 0x40
			return b
		}},
		{"empty", func(b []byte) []byte { return nil }},
		{"not-json", func(b []byte) []byte { return []byte("not json at all") }},
		{"wrong-format", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), format, "other-store/9", 1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := Open(t.TempDir())
			e := testEntry("victim-" + tc.name)
			if err := s.Save(e); err != nil {
				t.Fatal(err)
			}
			corruptFile(t, s, e.Key, tc.f)
			if _, ok := s.Load(e.Key); ok {
				t.Fatal("corrupted entry loaded")
			}
			st := s.Stats()
			if st.Corrupt != 1 || st.Misses != 1 {
				t.Errorf("stats after corruption = %s", st)
			}
			// The resume path: re-simulate (here: re-save) and reload.
			if err := s.Save(e); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Load(e.Key); !ok {
				t.Error("rewritten entry did not load")
			}
		})
	}
}

// TestKeyMismatchIsAMiss: an entry misfiled under another key's address
// must not answer for it.
func TestKeyMismatchIsAMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	e := testEntry("original")
	if err := s.Save(e); err != nil {
		t.Fatal(err)
	}
	other := testKey("other")
	raw, err := os.ReadFile(s.Path(e.Key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.Path(other)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(other), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(other); ok {
		t.Fatal("misfiled entry answered for the wrong key")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("stats = %s", st)
	}
}

// TestCounterLengthMismatchIsAMiss: an entry whose counter file does not
// match the current PMU event set (an older simulator's layout) must miss.
func TestCounterLengthMismatchIsAMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	e := testEntry("short-counters")
	e.Counters = e.Counters[:len(e.Counters)-1]
	if err := s.Save(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(e.Key); ok {
		t.Fatal("mis-sized counter file loaded")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if _, ok := s.Load(testKey("x")); ok {
		t.Error("nil store hit")
	}
	if err := s.Save(testEntry("x")); err != nil {
		t.Error("nil store save errored:", err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store stats = %s", st)
	}
	if s.Dir() != "" {
		t.Error("nil store has a dir")
	}
}

func TestKeyHashSensitivity(t *testing.T) {
	base := testKey("w")
	seen := map[string]Key{base.Hash(): base}
	perturb := []Key{}
	k := base
	k.Name = "w2"
	perturb = append(perturb, k)
	k = base
	k.ABI = "hybrid"
	perturb = append(perturb, k)
	k = base
	k.Scale = 2
	perturb = append(perturb, k)
	k = base
	k.Config = ConfigFingerprint(core.DefaultConfig(abi.Hybrid))
	perturb = append(perturb, k)
	k = base
	k.Supervisor = "chaos=1:5:0:tag-clear|deadline=0|retries=2"
	perturb = append(perturb, k)
	k = base
	k.Kind = KindKernel
	perturb = append(perturb, k)
	for _, p := range perturb {
		h := p.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("key collision: %+v and %+v", prev, p)
		}
		seen[h] = p
	}
}

func TestModelFingerprintStable(t *testing.T) {
	a, b := ModelFingerprint(), ModelFingerprint()
	if a != b || a == "" {
		t.Errorf("fingerprint unstable: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, core.ModelVersion+"+") {
		t.Errorf("fingerprint %q does not carry the model version", a)
	}
}

func TestStoredErrorTransientSurvives(t *testing.T) {
	f := &core.Fault{Kind: core.KindTag, Transient: true, Cause: errors.New("x")}
	if !core.IsTransient(f) {
		t.Skip("fault not transient under current rules")
	}
	back := EncodeError(f).Reconstruct()
	if !core.IsTransient(back) {
		t.Error("transience lost through the store")
	}
}

// TestInjectedEventsSurvive: the chaos schedule recorded on an entry comes
// back intact, so resilience matrices render identically warm.
func TestInjectedEventsSurvive(t *testing.T) {
	s, _ := Open(t.TempDir())
	e := testEntry("chaos")
	e.Key.Supervisor = "chaos=7:20:0:tag-clear|deadline=0|retries=2"
	e.Attempts = 3
	e.Injected = []faultinject.Event{{Uop: 4096, Addr: 0x1000}}
	if err := s.Save(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(e.Key)
	if !ok {
		t.Fatal("chaos entry did not load")
	}
	if got.Attempts != 3 || len(got.Injected) != 1 || got.Injected[0].Uop != 4096 {
		t.Errorf("supervision fields drifted: %+v", got)
	}
}

// TestProfileRoundTrip verifies that a KindProfile entry's attribution
// profile survives the store bit-exactly — float64 category values
// included, since the warm hotspot report and its conservation reconcile
// must be byte-identical to the cold run's.
func TestProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("sqlite")
	if err != nil {
		t.Fatal(err)
	}
	m, err := workloads.ExecuteHooked(w, core.DefaultConfig(abi.Purecap), 1, (*core.Machine).EnableProfile)
	if err != nil {
		t.Fatal(err)
	}
	prof := m.AttributionProfile()
	key := testKey("sqlite-profile")
	key.Kind = KindProfile
	key.Config += "+" + core.AttrLayoutVersion
	e := &Entry{Key: key, Profile: &prof}
	e.SetCounters(&m.C)
	if err := s.Save(e); err != nil {
		t.Fatal(err)
	}

	got, ok := s.Load(key)
	if !ok {
		t.Fatal("profile entry missed")
	}
	if got.Profile == nil {
		t.Fatal("profile dropped")
	}
	if got.Profile.Totals != prof.Totals {
		t.Errorf("totals not bit-exact:\nstored %v\nloaded %v", prof.Totals, got.Profile.Totals)
	}
	if got.Profile.TotalEvents != prof.TotalEvents {
		t.Errorf("event totals changed: %v vs %v", prof.TotalEvents, got.Profile.TotalEvents)
	}
	if len(got.Profile.Functions) != len(prof.Functions) {
		t.Fatalf("function count %d vs %d", len(got.Profile.Functions), len(prof.Functions))
	}
	for i := range prof.Functions {
		if got.Profile.Functions[i] != prof.Functions[i] {
			t.Errorf("function %d not bit-exact:\nstored %+v\nloaded %+v",
				i, prof.Functions[i], got.Profile.Functions[i])
		}
	}
	if got.Profile.Residual != prof.Residual {
		t.Errorf("residual not bit-exact:\nstored %+v\nloaded %+v", prof.Residual, got.Profile.Residual)
	}
}
