package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentileSampleCounts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, unsorted input
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 500, 500},
		{90, 900, 100},
		{99, 990, 10}, // the p99 of 1000 samples leaves ten beyond it
		{100, 1000, 0},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %v, want %v", c.p, got, c.want)
		}
		if got := beyond(len(xs), c.p); got != c.wantBeyond {
			t.Errorf("beyond(1000, p%g) = %d, want %d", c.p, got, c.wantBeyond)
		}
	}
	if got := beyond(999, 99); got != 9 {
		t.Errorf("beyond(999, p99) = %d, want 9 (too few samples for p99)", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestSlowestMean(t *testing.T) {
	for _, c := range []struct {
		in    []float64
		share float64
		want  float64
	}{
		{nil, 0.1, 0},
		{[]float64{7}, 0.1, 7},                  // at least one sample
		{[]float64{1, 9, 2, 8, 3}, 0.4, 8.5},    // the slowest two
		{[]float64{4, 1, 3, 2}, 1, 2.5},         // every sample
		{[]float64{1, 2, 3, 4, 5, 6}, 0.2, 5.5}, // ⌈1.2⌉ = 2 samples
	} {
		if got := slowestMean(c.in, c.share); got != c.want {
			t.Errorf("slowestMean(%v, %g) = %v, want %v", c.in, c.share, got, c.want)
		}
	}
}
