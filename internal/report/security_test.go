package report

import "testing"

func sampleSecurity() *SecurityReport {
	r := NewSecurityReport()
	r.Add(SecurityCell{
		Attack: "uaf", CWE: "CWE-416", ABI: "hybrid",
		Got: "corrupted", Want: "corrupted", Expected: true,
		Uops: 12345, BadWords: 2, FirstBad: 16,
	})
	r.Add(SecurityCell{
		Attack: "uaf", CWE: "CWE-416", ABI: "purecap",
		Got: "trap(tag)", Want: "trap(tag)", Expected: true, Uops: 9876,
	})
	r.Add(SecurityCell{
		Attack: "oob-read", CWE: "CWE-125", ABI: "purecap",
		Got: "clean", Want: "trap(bounds)", Expected: false,
		Detail: "want trap(bounds), got clean", Uops: 555,
	})
	return r
}

func TestSecurityCounts(t *testing.T) {
	r := sampleSecurity()
	if r.Diverged() != 1 {
		t.Fatalf("Diverged = %d, want 1", r.Diverged())
	}
	if r.SilentCorruptions() != 1 {
		t.Fatalf("SilentCorruptions = %d, want 1", r.SilentCorruptions())
	}
}
