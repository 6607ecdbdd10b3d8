package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one regenerable artefact of the paper's evaluation.
type Experiment struct {
	// ID is the short handle used by cmd/experiments (-run fig1).
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Section points at the paper text the artefact appears in.
	Section string
	// Run executes the experiment against a measurement session and
	// returns the rendered report.
	Run func(s *Session) (string, error)
	// Pairs, when set, declares the (workload, ABI) measurements Run will
	// ask the session for, so a caller can Prefetch them across the worker
	// pool before rendering. Nil means the experiment needs no session
	// measurements (or manages its own machines).
	Pairs func() []Pair
	// Manual marks experiments that run only when named explicitly
	// (-run <id>), never as part of the -all campaign: the security
	// experiment is a gate with its own exit semantics, not a paper
	// artefact, and must leave campaign output untouched.
	Manual bool
}

// UnionPairs returns the deduplicated union of the given experiments'
// declared measurement pairs, in first-declaration order.
func UnionPairs(exps []*Experiment) []Pair {
	seen := map[string]bool{}
	var out []Pair
	for _, e := range exps {
		if e.Pairs == nil {
			continue
		}
		for _, p := range e.Pairs() {
			if p.Workload == nil {
				continue
			}
			key := p.Workload.Name + "/" + p.ABI.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// Select resolves experiment handles into experiments, in All() order —
// the strict sibling of ByID for comma-split user input (the campaign
// service's submission validation). An empty list selects the -all set
// (Renderable()); naming a Manual experiment explicitly is allowed, the
// same way -run is. Duplicates collapse; any unknown or empty handle is an
// error before anything runs.
func Select(names []string) ([]*Experiment, error) {
	if len(names) == 0 {
		return Renderable(), nil
	}
	seen := map[string]bool{}
	for i, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, fmt.Errorf("experiments: empty experiment name in segment %d of %v (stray comma?)", i+1, names)
		}
		if _, err := ByID(n); err != nil {
			return nil, err
		}
		seen[n] = true
	}
	var out []*Experiment
	for _, e := range All() {
		if seen[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// RenderError pairs a failed experiment with its error, for the degraded
// campaign summary.
type RenderError struct {
	ID  string
	Err error
}

// RenderAll runs every experiment against s in degraded mode: the full
// measurement grid is prefetched across the worker pool, every experiment
// that renders is written to out (same bytes as rendering them one by one),
// and the ones that fail are collected — not fatal — so one crashed or
// injected-away measurement cannot abort the rest of the campaign.
func RenderAll(s *Session, out io.Writer) []RenderError {
	return RenderSelected(s, out, Renderable(), nil)
}

// RenderSelected is RenderAll over an explicit experiment list (Select):
// each experiment that renders is written to out in the given order, as
// its framed section (RenderSections), and failures are collected, not
// fatal. onExperiment, when non-nil, is called after each experiment
// finishes (rendered or failed), before its section is written.
func RenderSelected(s *Session, out io.Writer, exps []*Experiment, onExperiment func(*Experiment, error)) []RenderError {
	return RenderSections(s, exps, func(e *Experiment, section []byte, err error) {
		if onExperiment != nil {
			onExperiment(e, err)
		}
		if err == nil {
			out.Write(section) // a failing writer is its owner's to report, as with RenderAll's stdout
		}
	})
}

// RenderSections is the one campaign renderer. It prefetches the
// selection's measurement grid across the worker pool, runs the
// experiments in the given order in degraded mode, and calls yield after
// each one finishes with its framed section — "== id: title (section) ==",
// a newline, the report and a newline; nil when it failed — and its error.
// A section is a fresh slice with len == cap, and yield may keep it. The
// failures are returned as well.
func RenderSections(s *Session, exps []*Experiment, yield func(e *Experiment, section []byte, err error)) []RenderError {
	s.Prefetch(UnionPairs(exps))
	obs := s.campaignObserver()
	var failed []RenderError
	for _, e := range exps {
		sp := obs.experimentSpan(e)
		txt, err := e.Run(s)
		obs.experimentEnd(sp, e, err)
		var section []byte
		if err != nil {
			failed = append(failed, RenderError{ID: e.ID, Err: err})
		} else {
			section = frame(e, txt)
		}
		yield(e, section, err)
	}
	return failed
}

// frame builds e's section around its report txt, allocated at exactly its
// length.
func frame(e *Experiment, txt string) []byte {
	head := "== " + e.ID + ": " + e.Title + " (" + e.Section + ") ==\n"
	b := make([]byte, 0, len(head)+len(txt)+1)
	return append(append(append(b, head...), txt...), '\n')
}

var registry = map[string]*Experiment{}
var order []string

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// ByID returns the experiment with the given handle.
func ByID(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists every experiment handle in registration order.
func IDs() []string {
	out := append([]string(nil), order...)
	return out
}

// All returns every experiment in a stable order: figures and tables in
// paper order first, then ablations and claims.
func All() []*Experiment {
	ids := IDs()
	sort.SliceStable(ids, func(i, j int) bool { return rank(ids[i]) < rank(ids[j]) })
	var out []*Experiment
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

// Renderable returns the experiments the -all campaign runs, in All()
// order: everything except the Manual gates.
func Renderable() []*Experiment {
	var out []*Experiment
	for _, e := range All() {
		if !e.Manual {
			out = append(out, e)
		}
	}
	return out
}

func rank(id string) int {
	for i, want := range []string{
		"table1", "table2", "fig1", "fig2", "table3", "fig3", "table4",
		"fig4", "fig5", "fig6", "fig7", "claims",
	} {
		if id == want {
			return i
		}
	}
	// hotspots renders last: it appends to the campaign report without
	// perturbing the byte-identical prefix earlier sections pin.
	if id == "hotspots" {
		return 200
	}
	return 100
}
