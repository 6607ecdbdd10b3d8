// Package golden implements the regression gate over rendered numbers: a
// committed baseline file of per-(workload, ABI) derived-metric vectors
// with absolute/relative tolerances, a differ that reports every
// out-of-tolerance metric, and an updater. PR 4's lockstep checker guards
// the microarchitectural models; this gate guards the figures themselves,
// so "this change does not move any reported number" becomes an enforced
// check instead of a manual diff — the re-run-the-whole-sweep tax the
// CHERI allocator and interpreter studies paid to confirm regressions.
package golden

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Format identifies the baseline file layout; bump on changes.
const Format = "cherisim-golden/1"

// Tolerance bounds acceptable drift for one metric: a value passes when
// |got-want| <= Abs + Rel*|want|. The zero Tolerance demands bit-equality,
// which the engine's determinism supports.
type Tolerance struct {
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

// Allows reports whether got is within tolerance of want. NaNs never
// compare equal to numbers; two NaNs are treated as in-tolerance.
func (t Tolerance) Allows(want, got float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	// float64(...) forbids a fused multiply-add, so the bound is the same
	// on every host.
	return math.Abs(got-want) <= t.Abs+float64(t.Rel*math.Abs(want))
}

// Baseline is the committed golden file: per-pair metric vectors plus the
// tolerances and provenance needed to compare a fresh campaign against it.
type Baseline struct {
	// Format is the file-layout tag (Format).
	Format string `json:"format"`
	// Model is the resultstore.ModelFingerprint the baseline was captured
	// under; a mismatch means the simulator semantics changed and the
	// baseline needs regenerating, not that a figure silently drifted.
	Model string `json:"model"`
	// Scale is the workload scale factor of the capture.
	Scale int `json:"scale"`
	// Default is the tolerance applied to metrics with no override.
	Default Tolerance `json:"default_tolerance"`
	// Metrics holds per-metric tolerance overrides by metric name.
	Metrics map[string]Tolerance `json:"metric_tolerances,omitempty"`
	// Entries maps "workload/abi" to its metric vector.
	Entries map[string]map[string]float64 `json:"entries"`
}

// New builds a baseline over the given entries with exact-match defaults.
func New(model string, scale int, entries map[string]map[string]float64) *Baseline {
	return &Baseline{
		Format:  Format,
		Model:   model,
		Scale:   scale,
		Entries: entries,
	}
}

// Load reads and validates a baseline file.
func Load(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("golden: parse %s: %w", path, err)
	}
	if b.Format != Format {
		return nil, fmt.Errorf("golden: %s has format %q, want %q (regenerate with -update-baseline)",
			path, b.Format, Format)
	}
	if len(b.Entries) == 0 {
		return nil, fmt.Errorf("golden: %s has no entries", path)
	}
	return &b, nil
}

// Write persists the baseline atomically (temp file + rename), with keys
// sorted by the JSON encoder so regeneration diffs are minimal.
func (b *Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("golden: encode: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "golden-*")
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("golden: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("golden: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("golden: commit %s: %w", path, err)
	}
	return nil
}

// ToleranceFor returns the tolerance for a metric (override or default).
func (b *Baseline) ToleranceFor(metric string) Tolerance {
	if t, ok := b.Metrics[metric]; ok {
		return t
	}
	return b.Default
}

// Drift kinds.
const (
	// DriftValue is a metric outside its tolerance.
	DriftValue = "value"
	// DriftMissingPair is a baseline pair absent from the campaign (a
	// workload stopped running or was renamed).
	DriftMissingPair = "missing-pair"
	// DriftExtraPair is a campaign pair absent from the baseline (a new
	// workload landed without -update-baseline).
	DriftExtraPair = "extra-pair"
	// DriftMissingMetric is a baseline metric absent from a pair's vector.
	DriftMissingMetric = "missing-metric"
)

// Drift is one out-of-tolerance finding.
type Drift struct {
	Kind   string  `json:"kind"`
	Pair   string  `json:"pair"`
	Metric string  `json:"metric,omitempty"`
	Want   float64 `json:"want,omitempty"`
	Got    float64 `json:"got,omitempty"`
}

// String renders one drift line for the gate report.
func (d Drift) String() string {
	switch d.Kind {
	case DriftValue:
		delta := d.Got - d.Want
		rel := math.Inf(1)
		if d.Want != 0 {
			rel = delta / d.Want
		}
		return fmt.Sprintf("%s: %s = %.9g, baseline %.9g (drift %+.3g, %+.2f%%)",
			d.Pair, d.Metric, d.Got, d.Want, delta, rel*100)
	case DriftMissingPair:
		return fmt.Sprintf("%s: in baseline but missing from this campaign", d.Pair)
	case DriftExtraPair:
		return fmt.Sprintf("%s: measured but absent from the baseline (run -update-baseline)", d.Pair)
	case DriftMissingMetric:
		return fmt.Sprintf("%s: metric %s missing from this campaign", d.Pair, d.Metric)
	}
	return fmt.Sprintf("%s: %s drift", d.Pair, d.Kind)
}

// Diff compares a fresh campaign's metric vectors against the baseline and
// returns every out-of-tolerance metric and every pair-set mismatch, in
// deterministic (pair, metric) order. An empty result means the campaign
// reproduces the baseline within tolerance.
func (b *Baseline) Diff(got map[string]map[string]float64) []Drift {
	var drifts []Drift
	for _, pair := range sortedKeys(b.Entries) {
		want := b.Entries[pair]
		gv, ok := got[pair]
		if !ok {
			drifts = append(drifts, Drift{Kind: DriftMissingPair, Pair: pair})
			continue
		}
		for _, metric := range sortedKeys(want) {
			wv := want[metric]
			mv, ok := gv[metric]
			if !ok {
				drifts = append(drifts, Drift{Kind: DriftMissingMetric, Pair: pair, Metric: metric})
				continue
			}
			if !b.ToleranceFor(metric).Allows(wv, mv) {
				drifts = append(drifts, Drift{Kind: DriftValue, Pair: pair, Metric: metric, Want: wv, Got: mv})
			}
		}
	}
	for _, pair := range sortedKeys(got) {
		if _, ok := b.Entries[pair]; !ok {
			drifts = append(drifts, Drift{Kind: DriftExtraPair, Pair: pair})
		}
	}
	return drifts
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
