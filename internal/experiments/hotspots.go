package experiments

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/profile"
	"cherisim/internal/resultstore"
	"cherisim/internal/telemetry"
	"cherisim/internal/workloads"
)

// This file wires the per-function attribution profiler (core.attribute +
// internal/profile) through the campaign engine: ProfileRun is the profiled
// sibling of Session.Run — memoized per session, executed through
// Session.do and persisted under its own store kind — and the "hotspots"
// experiment renders the differential ABI hotspot report over the paper's
// top-down workload set. Profiled runs are the only session runs that turn
// attribution on (core.Machine.EnableProfile); every other machine leaves
// it off, since nothing reads its profile.

// hotspotTopN bounds the rendered rows per workload; the full profile is
// still computed, exported (flamegraph/pprof) and stored.
const hotspotTopN = 8

func init() {
	register(&Experiment{
		ID:      "hotspots",
		Title:   "Per-function differential ABI hotspots (top-down attribution)",
		Section: "§4.4-§4.7 at function granularity",
		Run:     runHotspots,
	})
}

// profileStoreKey addresses one profiled (workload, ABI) run under its
// effective configuration cfg. It rides the measurement key's fingerprints
// but under its own kind, and folds the attribution layout version into the
// config fingerprint so a layout change invalidates stored profiles without
// touching the model fingerprint (and therefore without invalidating golden
// baselines or plain run entries).
func (s *Session) profileStoreKey(w *workloads.Workload, a abi.ABI, cfg core.Config) resultstore.Key {
	key := s.runStoreKey(w, a, cfg)
	key.Kind = resultstore.KindProfile
	key.Config += "+" + core.AttrLayoutVersion
	return key
}

// ProfileRun returns the (cached) per-function attribution profile of
// executing workload w under ABI a, alongside the same supervision Run
// applies (watchdog, chaos attempt 0, lockstep checking). Concurrent calls
// for the same pair share one execution; profiles round-trip through the
// result store bit-exactly, so a warm campaign re-renders with zero misses
// and byte-identical output. Every returned profile has passed
// profile.Reconcile against its run's counter file.
func (s *Session) ProfileRun(w *workloads.Workload, a abi.ABI) (*core.AttributionProfile, error) {
	c := s.memoized(memoKey{workload: w.Name, abi: a, profile: true}, func(c *memoCell) {
		cfg := s.effectiveConfig(a)
		key := s.profileStoreKey(w, a, cfg)
		e, err := s.do(key, 1, func(run *telemetry.Span, _ int) (*resultstore.Entry, error) {
			return s.profileOnce(key, w, a, cfg, run)
		})
		if err != nil {
			c.err = err
			return
		}
		c.prof = e.Profile
		s.campaignObserver().profiled(w, a, c.prof)
	})
	return c.prof, c.err
}

// profileOnce performs one profiled execution: the session's supervision
// and lockstep hooks, plus — unlike executeOnce — EnableProfile, so the
// interpreter attributes every µop to the function executing it. The
// profile is reconciled against the run's counter file before it is
// stored.
func (s *Session) profileOnce(key resultstore.Key, w *workloads.Workload, a abi.ABI, cfg core.Config, run *telemetry.Span) (*resultstore.Entry, error) {
	s.execs.Add(1)
	_, setup := s.attemptSetup(w, a, 0, s.campaignObserver(), run)
	m, err := workloads.ExecuteHooked(w, cfg, s.Scale, func(m *core.Machine) {
		m.EnableProfile()
		if setup != nil {
			setup(m)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("profile %s/%s: %w", w.Name, a, err)
	}
	prof := m.AttributionProfile()
	if err := profile.Reconcile(prof, &m.C); err != nil {
		return nil, fmt.Errorf("profile %s/%s: %w", w.Name, a, err)
	}
	e := &resultstore.Entry{Key: key, Attempts: 1, Profile: &prof}
	fillCoreResult(&e.CoreResult, m, nil, nil)
	return e, nil
}

// HotspotProfiles profiles the paper's top-down workload set (Table 4)
// under every ABI, fanning out across the worker pool, and returns the
// profiles keyed by workload name and indexed by abi.ABI. Any failed
// profiled run fails the whole set — the differential report needs all
// three ABIs of every workload.
func (s *Session) HotspotProfiles() (map[string][3]core.AttributionProfile, error) {
	set, abis := workloads.TopDownSet(), abi.All()
	profs := make([]*core.AttributionProfile, len(set)*len(abis))
	err := fanOut(len(profs), func(i int) (err error) {
		profs[i], err = s.ProfileRun(set[i/len(abis)], abis[i%len(abis)])
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][3]core.AttributionProfile, len(set))
	for i, p := range profs {
		w, a := set[i/len(abis)], abis[i%len(abis)]
		v := out[w.Name]
		v[a] = *p
		out[w.Name] = v
	}
	return out, nil
}

// cyc rounds a cycle estimate for display, collapsing negative zero (the
// residual's sub-cycle float dust) onto plain 0.
func cyc(v float64) float64 {
	r := math.Round(v)
	if r == 0 {
		return 0
	}
	return r
}

// runHotspots renders the differential ABI hotspot report: per workload,
// the functions that absorb the most purecap overhead, side by side across
// the three ABIs, with the top-down category that grew — the paper's
// Figs. 5-7 narrative at function granularity.
func runHotspots(s *Session) (string, error) {
	profs, err := s.HotspotProfiles()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Per-function hotspots: cycles by ABI, Δ = purecap − hybrid, and the\n")
	b.WriteString("top-down category with the largest purecap growth (top ")
	fmt.Fprintf(&b, "%d per workload)\n", hotspotTopN)
	for _, w := range workloads.TopDownSet() {
		fmt.Fprintf(&b, "\n%s:\n", w.Name)
		tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "function\thybrid\tbenchmark\tpurecap\tΔcycles\tratio\tgrew in")
		diffs := profile.Diff(profs[w.Name])
		if len(diffs) > hotspotTopN {
			diffs = diffs[:hotspotTopN]
		}
		for _, d := range diffs {
			ratio := "-"
			// Sub-cycle rows (the residual's float dust) get no ratio: a
			// quotient of rounding noise reads as a real overhead.
			if d.Ratio > 0 && d.Cycles[abi.Hybrid] >= 0.5 {
				ratio = fmt.Sprintf("%.3f", d.Ratio)
			}
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%+.0f\t%s\t%s\n",
				d.Name, cyc(d.Cycles[abi.Hybrid]), cyc(d.Cycles[abi.Benchmark]),
				cyc(d.Cycles[abi.Purecap]), cyc(d.Delta), ratio, d.Growth)
		}
		tw.Flush()
	}
	return b.String(), nil
}
