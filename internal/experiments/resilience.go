package experiments

import (
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/core"
	"cherisim/internal/faultinject"
	"cherisim/internal/report"
	"cherisim/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:      "resilience",
		Title:   "Crash matrix under deterministic capability-fault injection",
		Section: "Appendix Table 5 (extended)",
		Run:     runResilience,
		Pairs:   func() []Pair { return pairsOf(resilienceWorkloads(), abi.All()...) },
	})
}

// resilienceRates is the injection-rate sweep in expected events per
// million µops. Rate 0 is the undisturbed baseline, where only the paper's
// Appendix Table 5 benchmarks crash (and only under the capability ABIs).
// The non-zero rates are low enough that short workloads can survive a
// schedule (or a retry of one), so the matrix shows a gradient instead of
// uniform death: hybrid ignores tag/bounds/perm corruption and dies only
// to spurious traps, while the capability ABIs also trap on the latent
// corruptions — the paper's Table 5 asymmetry, made systematic.
var resilienceRates = []float64{0, 5, 20}

// resilienceWorkloads returns the sweep's workload set: the paper's 12
// selected benchmarks plus the two compiled-but-crashing Table 5 entries.
var resilienceWorkloads = func() []*workloads.Workload {
	return append(workloads.Selected(), workloads.Faulty()...)
}

// defaultResilienceRetries is the transient-retry budget when the session
// does not set one.
const defaultResilienceRetries = 2

// cellStatus folds a supervised run outcome into the report taxonomy.
func cellStatus(d *RunData) string {
	if d.Err == nil {
		return "ok"
	}
	var f *core.Fault
	if errors.As(d.Err, &f) {
		return f.Kind.String()
	}
	var de *core.DeadlineError
	if errors.As(d.Err, &de) {
		return "deadline"
	}
	var pe *core.PanicError
	if errors.As(d.Err, &pe) {
		return "panic"
	}
	return "error"
}

// runResilience sweeps injection rate x ABI across the workload set and
// renders the resulting crash matrix. Every run is supervised (bounded
// transient retries, optional watchdog deadline), and the whole sweep is a
// pure function of the chaos seed: two renders with one seed are
// byte-identical.
func runResilience(s *Session) (string, error) {
	seed := s.ChaosSeed
	if seed == 0 {
		seed = 1
	}
	kinds := faultinject.AllKinds()
	if s.Chaos != nil && len(s.Chaos.Kinds) > 0 {
		kinds = s.Chaos.Kinds
	}
	retries := s.Retries
	if retries <= 0 {
		retries = defaultResilienceRetries
	}

	kindNames := make([]string, len(kinds))
	for i, k := range kinds {
		kindNames[i] = k.String()
	}
	ws := resilienceWorkloads()
	abis := abi.All()
	rep := report.NewResilienceReport(seed, kindNames, resilienceRates)

	// One supervised session per rate; each caches its own grid.
	results := make(map[float64]map[string]*RunData, len(resilienceRates))
	for _, rate := range resilienceRates {
		sub := s
		if rate > 0 || s.Chaos != nil {
			sub = s.derive()
			sub.Retries = retries
			sub.Chaos = nil // the chaos schedule is part of the store key
			if rate > 0 {
				sub.Chaos = &faultinject.Config{Seed: seed, RatePerMUops: rate, Kinds: kinds}
			}
		}
		sub.Prefetch(pairsOf(ws, abis...))
		cells := make(map[string]*RunData, len(ws)*len(abis))
		for _, w := range ws {
			for _, a := range abis {
				d := sub.Run(w, a)
				cells[w.Name+"/"+a.String()] = d
				errText := ""
				if d.Err != nil {
					errText = d.Err.Error()
				}
				rep.Add(report.ResilienceCell{
					RatePerMUops: rate,
					Workload:     w.Name,
					ABI:          a.String(),
					Status:       cellStatus(d),
					Attempts:     d.Attempts,
					Injected:     len(d.Injected),
					Err:          errText,
				})
			}
		}
		results[rate] = cells
	}

	var b strings.Builder
	deadline := "off"
	if s.DeadlineUops > 0 {
		deadline = fmt.Sprintf("%d uops", s.DeadlineUops)
	}
	fmt.Fprintf(&b, "Resilience sweep: seeded capability-fault injection across %d workloads x %d ABIs\n",
		len(ws), len(abis))
	fmt.Fprintf(&b, "seed=%d kinds=%s retries=%d deadline=%s\n\n",
		seed, strings.Join(kindNames, ","), retries, deadline)

	// Survival by rate and ABI.
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "rate(/Muop)")
	for _, a := range abis {
		fmt.Fprintf(tw, "\t%s", a)
	}
	fmt.Fprintf(tw, "\tinjected\tretried\n")
	for _, rate := range resilienceRates {
		cells := results[rate]
		fmt.Fprintf(tw, "%g", rate)
		injected, retried := 0, 0
		for _, a := range abis {
			ok := 0
			for _, w := range ws {
				if cells[w.Name+"/"+a.String()].Err == nil {
					ok++
				}
			}
			fmt.Fprintf(tw, "\t%d/%d", ok, len(ws))
		}
		for _, w := range ws {
			for _, a := range abis {
				d := cells[w.Name+"/"+a.String()]
				injected += len(d.Injected)
				if d.Attempts > 1 {
					retried++
				}
			}
		}
		fmt.Fprintf(tw, "\t%d\t%d\n", injected, retried)
	}
	tw.Flush()

	// Crash matrix at the highest rate, the Appendix-Table-5 extension:
	// per-cell outcome class (attempt count appended when retries fired).
	top := resilienceRates[len(resilienceRates)-1]
	fmt.Fprintf(&b, "\ncrash matrix at rate %g/Muop (Appendix Table 5 class in each cell):\n", top)
	tw = tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload")
	for _, a := range abis {
		fmt.Fprintf(tw, "\t%s", a)
	}
	fmt.Fprintln(tw)
	for _, w := range ws {
		fmt.Fprintf(tw, "%s", w.Name)
		for _, a := range abis {
			d := results[top][w.Name+"/"+a.String()]
			cell := cellStatus(d)
			if d.Attempts > 1 {
				cell += fmt.Sprintf(" (x%d)", d.Attempts)
			}
			fmt.Fprintf(tw, "\t%s", cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	// Baseline sanity line: at rate 0 the only crashes must be the paper's
	// two Table 5 benchmarks, and only under the capability ABIs.
	base := results[0]
	naturals := []string{}
	for _, w := range ws {
		for _, a := range abis {
			if d := base[w.Name+"/"+a.String()]; d.Err != nil {
				naturals = append(naturals, fmt.Sprintf("%s/%s(%s)", w.Name, a, cellStatus(d)))
			}
		}
	}
	fmt.Fprintf(&b, "\nbaseline (rate 0) crashes: %s\n", strings.Join(naturals, " "))
	if frac, n := rep.Survival(0); n > 0 {
		fmt.Fprintf(&b, "survival: %.0f%% at rate 0", frac*100)
		for _, rate := range resilienceRates[1:] {
			f, _ := rep.Survival(rate)
			fmt.Fprintf(&b, " -> %.0f%% at %g/Muop", f*100, rate)
		}
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}
