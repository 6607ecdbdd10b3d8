package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/attacks"
	"cherisim/internal/core"
	"cherisim/internal/report"
	"cherisim/internal/workloads"
)

func init() {
	register(&Experiment{
		ID:      "security",
		Title:   "Memory-safety attack corpus with per-ABI verdict oracle",
		Section: "Appendix Table 5 (attack corpus)",
		Run:     runSecurity,
		// A Manual gate: run only via -run security, never in -all. The
		// per-attack machine configurations are managed by runSecurity's
		// sub-sessions, so no Pairs are declared on the parent.
		Manual: true,
	})
}

// runSecurity runs the attack corpus (internal/attacks) across the three
// ABIs, classifies every run via the fault taxonomy plus the canary
// corruption witness, and checks each verdict against the attack's
// expected-outcome spec. The rendered matrix is returned even on
// divergence; the error makes the CLI exit non-zero so the corpus acts as
// a CI gate.
func runSecurity(s *Session) (string, error) {
	sel, err := attacks.Select(s.Attacks)
	if err != nil {
		return "", err
	}
	abis := abi.All()
	rep := report.NewSecurityReport()

	type cell struct {
		got  attacks.Outcome
		want attacks.Expect
		data *RunData
		ok   bool
		why  string
	}
	cells := make(map[string]*cell, len(sel)*len(abis))

	// One sub-session per attack: the per-attack Configure (the temporal
	// attacks quarantine freed memory under the capability ABIs) composes
	// with the parent's and flows into the store key, and the supervisor
	// settings (deadline watchdog, bounded retries, chaos) apply
	// unchanged.
	for _, a := range sel {
		sub := s.derive()
		parent := s.Configure
		attack := a.Configure
		sub.Configure = func(cfg *core.Config) {
			if parent != nil {
				parent(cfg)
			}
			if attack != nil {
				attack(cfg)
			}
		}
		sub.Prefetch(pairsOf([]*workloads.Workload{a.Workload}, abis...))
		for _, ab := range abis {
			d := sub.Run(a.Workload, ab)
			got := attacks.Classify(d.Err, d.Witness)
			ok, why := a.Check(ab, got, d.Uops)
			c := &cell{got: got, want: a.Expect(ab), data: d, ok: ok, why: why}
			cells[a.Name+"/"+ab.String()] = c

			rc := report.SecurityCell{
				Attack:   a.Name,
				CWE:      a.CWE,
				ABI:      ab.String(),
				Got:      got.String(),
				Want:     c.want.Outcome.String(),
				Expected: ok,
				Detail:   why,
				Uops:     d.Uops,
			}
			if got.Kind == attacks.SurviveCorrupted && d.Witness != nil {
				rc.BadWords = d.Witness.BadWords
				rc.FirstBad = d.Witness.FirstBad
			}
			rep.Add(rc)
		}
	}

	if s.Telemetry.Enabled() {
		m := s.Telemetry.Metrics
		m.Counter("attacks_run").Add(int64(len(rep.Cells)))
		m.Counter("verdicts_expected").Add(int64(len(rep.Cells) - rep.Diverged()))
		m.Counter("verdicts_diverged").Add(int64(rep.Diverged()))
		m.Counter("silent_corruptions").Add(int64(rep.SilentCorruptions()))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Memory-safety attack corpus: %d attacks x %d ABIs, verdicts vs expected-outcome spec\n", len(sel), len(abis))
	fmt.Fprintf(&b, "survival is classified by the canary checksum witness: \"corrupted\" means the\nrun finished but the witness found the victim region overwritten.\n\n")

	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "attack\tCWE")
	for _, ab := range abis {
		fmt.Fprintf(tw, "\t%s", ab)
	}
	fmt.Fprintln(tw)
	for _, a := range sel {
		fmt.Fprintf(tw, "%s\t%s", a.Name, a.CWE)
		for _, ab := range abis {
			c := cells[a.Name+"/"+ab.String()]
			txt := c.got.String()
			if !c.ok {
				txt += " [DIVERGED]"
			}
			fmt.Fprintf(tw, "\t%s", txt)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	// Witnessed silent corruptions, with their canary mismatch extent.
	var corr []string
	for _, a := range sel {
		for _, ab := range abis {
			c := cells[a.Name+"/"+ab.String()]
			if c.got.Kind == attacks.SurviveCorrupted && c.data.Witness != nil {
				w := c.data.Witness
				corr = append(corr, fmt.Sprintf("  %s/%s: %d/%d canary words overwritten, first at +%d bytes",
					a.Name, ab, w.BadWords, w.Words, w.FirstBad))
			}
		}
	}
	if len(corr) > 0 {
		fmt.Fprintf(&b, "\nsilent corruptions witnessed (%d):\n%s\n", len(corr), strings.Join(corr, "\n"))
	}

	var div []string
	for _, a := range sel {
		for _, ab := range abis {
			c := cells[a.Name+"/"+ab.String()]
			if !c.ok {
				div = append(div, fmt.Sprintf("  %s/%s: %s", a.Name, ab, c.why))
			}
		}
	}
	if len(div) > 0 {
		fmt.Fprintf(&b, "\nDIVERGED verdicts (%d):\n%s\n", len(div), strings.Join(div, "\n"))
		return b.String(), fmt.Errorf("security: %d of %d verdicts diverged from the expected-outcome spec", len(div), len(rep.Cells))
	}
	fmt.Fprintf(&b, "\nall %d verdicts match the expected-outcome spec (%d silent corruptions witnessed)\n",
		len(rep.Cells), rep.SilentCorruptions())
	return b.String(), nil
}
