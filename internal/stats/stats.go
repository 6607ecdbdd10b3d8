// Package stats provides the statistical helpers the experiment harness
// uses: means, standard deviation, normalization, geometric means, and the
// Pearson correlation matrix behind the paper's Figure 7.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// GeoMean returns the geometric mean of positive values.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, or 0 when either is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		// float64(...) rounds each product before the add, so no host
		// fuses them into a multiply-add (Go spec, Floating-point operators).
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CorrMatrix holds a labelled correlation matrix (Figure 7).
type CorrMatrix struct {
	Labels []string
	R      [][]float64
}

// Correlate computes the pairwise Pearson matrix of the named series.
// Every series must have the same sample count.
func Correlate(labels []string, series [][]float64) (*CorrMatrix, error) {
	if len(labels) != len(series) {
		return nil, fmt.Errorf("stats: %d labels for %d series", len(labels), len(series))
	}
	n := -1
	for i, s := range series {
		if n == -1 {
			n = len(s)
		}
		if len(s) != n {
			return nil, fmt.Errorf("stats: series %q has %d samples, want %d", labels[i], len(s), n)
		}
	}
	m := &CorrMatrix{Labels: append([]string(nil), labels...)}
	m.R = make([][]float64, len(series))
	for i := range series {
		m.R[i] = make([]float64, len(series))
		for j := range series {
			if i == j {
				m.R[i][j] = 1
				continue
			}
			m.R[i][j] = Pearson(series[i], series[j])
		}
	}
	return m, nil
}

// StrongPairs returns the label pairs with |r| >= threshold, excluding the
// diagonal, each pair reported once.
func (m *CorrMatrix) StrongPairs(threshold float64) []string {
	var out []string
	for i := range m.R {
		for j := i + 1; j < len(m.R); j++ {
			if math.Abs(m.R[i][j]) >= threshold {
				out = append(out, fmt.Sprintf("%s~%s r=%+.2f", m.Labels[i], m.Labels[j], m.R[i][j]))
			}
		}
	}
	return out
}

// String renders the matrix as a fixed-width table.
func (m *CorrMatrix) String() string {
	var b strings.Builder
	w := 0
	for _, l := range m.Labels {
		if len(l) > w {
			w = len(l)
		}
	}
	fmt.Fprintf(&b, "%*s", w+1, "")
	for _, l := range m.Labels {
		fmt.Fprintf(&b, " %6s", truncate(l, 6))
	}
	b.WriteByte('\n')
	for i, row := range m.R {
		fmt.Fprintf(&b, "%-*s ", w+1, m.Labels[i])
		for _, r := range row {
			fmt.Fprintf(&b, " %+5.2f", r)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// truncate shortens s to at most n characters (runes, not bytes): slicing
// byte offsets would cut a multi-byte UTF-8 workload label mid-sequence and
// garble the Figure 7 matrix header.
func truncate(s string, n int) string {
	if len(s) <= n { // fast path: byte length bounds rune length
		return s
	}
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n])
}

// Normalize divides each value by base, returning 0 where base is 0.
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	if base == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}
