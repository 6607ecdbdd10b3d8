package report

import "testing"

func sampleResilience() *ResilienceReport {
	r := NewResilienceReport(7, []string{"tag-clear", "spurious-trap"}, []float64{0, 20})
	r.Add(ResilienceCell{RatePerMUops: 0, Workload: "a", ABI: "hybrid", Status: "ok", Attempts: 1})
	r.Add(ResilienceCell{RatePerMUops: 0, Workload: "a", ABI: "purecap", Status: "tag", Attempts: 1,
		Err: "capability fault"})
	r.Add(ResilienceCell{RatePerMUops: 20, Workload: "a", ABI: "hybrid", Status: "ok", Attempts: 2, Injected: 3})
	r.Add(ResilienceCell{RatePerMUops: 20, Workload: "a", ABI: "purecap", Status: "bounds", Attempts: 1, Injected: 1,
		Err: "capability fault"})
	return r
}

func TestResilienceSurvival(t *testing.T) {
	r := sampleResilience()
	if frac, n := r.Survival(0); n != 2 || frac != 0.5 {
		t.Fatalf("Survival(0) = %v, %d", frac, n)
	}
	if frac, n := r.Survival(20); n != 2 || frac != 0.5 {
		t.Fatalf("Survival(20) = %v, %d", frac, n)
	}
	if _, n := r.Survival(999); n != 0 {
		t.Fatalf("Survival(999) found %d cells", n)
	}
}
