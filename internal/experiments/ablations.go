package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:      "ablation-predictor",
		Title:   "Projection: capability-aware branch predictor (PCC-bounds tracking)",
		Section: "§4.5, §5 — 'modest microarchitectural improvements'",
		Run:     runAblationPredictor,
		Pairs:   ablationPairs,
	})
	register(&Experiment{
		ID:      "ablation-storequeue",
		Title:   "Projection: capability-width store queue",
		Section: "§2.2 — store buffers sized for 64-bit operations",
		Run:     runAblationStoreQueue,
		Pairs:   ablationPairs,
	})
	register(&Experiment{
		ID:      "ablation-caches",
		Title:   "Projection: doubled L2 to absorb capability footprint",
		Section: "§4.7 — cache pressure from 128-bit capabilities",
		Run:     runAblationCaches,
		Pairs:   ablationPairs,
	})
}

// ablate runs purecap under the default machine and under a modified
// configuration, reporting per-workload overhead versus the *default
// hybrid* baseline, so the delta shows how much of CHERI's cost the
// microarchitectural change removes.
func ablate(s *Session, names []string, configure func(*core.Config)) (string, error) {
	mod := s.derive()
	mod.Configure = configure // part of the store key
	// Fan the modified-configuration runs out across the worker pool before
	// the serial render below (the base session's pairs are declared via
	// ablationPairs, so a campaign prefetch has already covered them).
	mod.Prefetch(namedPairs(names, abi.Purecap))

	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tpurecap/hybrid (Morello)\tpurecap/hybrid (improved)\toverhead removed")
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return "", err
		}
		baseHy := s.Seconds(w, abi.Hybrid)
		basePure := s.Seconds(w, abi.Purecap)
		modPure := mod.Seconds(w, abi.Purecap)
		if baseHy == 0 {
			return "", fmt.Errorf("%s: hybrid run failed", name)
		}
		before := basePure / baseHy
		after := modPure / baseHy
		removed := 0.0
		if before > 1 {
			removed = (before - after) / (before - 1) * 100
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.0f%%\n", name, before, after, removed)
	}
	tw.Flush()
	return b.String(), nil
}

var ablationSet = []string{
	"520.omnetpp_r", "523.xalancbmk_r", "541.leela_r", "531.deepsjeng_r",
	"sqlite", "quickjs", "llama-inference",
}

// ablationPairs declares the base-session measurements every ablation
// compares against (the modified-configuration runs live in a derived
// session and are prefetched inside ablate).
func ablationPairs() []Pair {
	return namedPairs(ablationSet, abi.Hybrid, abi.Purecap)
}

func runAblationPredictor(s *Session) (string, error) {
	body, err := ablate(s, ablationSet, func(c *core.Config) { c.TracksPCCBounds = true })
	if err != nil {
		return "", err
	}
	return "Ablation: capability-aware branch predictor (tracks PCC bounds)\n" +
		"Removes the Morello prototype's PCC-change resteers and capability-jump\n" +
		"revalidation; the remaining overhead is inherent to the CHERI model\n" +
		"(footprint, instruction inflation).\n\n" + body, nil
}

func runAblationStoreQueue(s *Session) (string, error) {
	body, err := ablate(s, ablationSet, func(c *core.Config) { c.CapStoreQueuePenalty = 0 })
	if err != nil {
		return "", err
	}
	return "Ablation: capability-width store queue (no 128-bit store pressure)\n\n" + body, nil
}

func runAblationCaches(s *Session) (string, error) {
	body, err := ablate(s, ablationSet, func(c *core.Config) {
		c.L2.SizeBytes *= 2
		c.LLC.SizeBytes *= 2
	})
	if err != nil {
		return "", err
	}
	return "Ablation: doubled L2/LLC capacity (absorbs the capability footprint)\n\n" + body, nil
}
