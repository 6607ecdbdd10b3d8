// Package workloads implements the paper's 20 application workloads as
// algorithm kernels running on the simulated Morello machine: 17 SPEC CPU
// 2017 benchmarks (the C/C++ subset the paper could compile, in _r and _s
// variants), QuickJS, LLaMA.cpp (inference and matmul) and SQLite.
//
// Each kernel implements the data structures and inner loops that dominate
// the real benchmark's execution profile — a discrete-event simulator for
// omnetpp, a DOM transform for xalancbmk, a lattice-Boltzmann stencil for
// lbm, and so on — so that the per-ABI differences the paper measures
// (capability pointer width, capability jumps, allocator rounding) act on
// the same structural causes. Kernels are deterministic: a fixed seed
// drives every pseudo-random choice.
package workloads

import (
	"fmt"
	"sort"

	"cherisim/internal/core"
)

// Workload describes one benchmark program.
type Workload struct {
	// Name is the paper's benchmark identifier (e.g. "520.omnetpp_r").
	Name string
	// Desc is a one-line description.
	Desc string
	// PaperMI is the memory-intensity value from Table 2.
	PaperMI float64
	// PaperTimes holds Table 3/4 execution times [hybrid, benchmark,
	// purecap] in seconds, when the paper reports them (zeros otherwise).
	// Benchmark-ABI NA (QuickJS) is recorded as a negative value.
	PaperTimes [3]float64
	// Selected marks the 12 representative benchmarks of Table 3.
	Selected bool
	// TopDown marks the 6 workloads of Table 4 / Figures 3, 4, 6.
	TopDown bool
	// Run executes the kernel body on m. scale >= 1 multiplies the work
	// (iteration counts); data-structure sizes are fixed so cache and TLB
	// behaviour is scale-independent once warmed.
	Run func(m *core.Machine, scale int)
	// Canary, when set, is the workload's corruption witness: invoked on
	// the machine after the body finishes (normally or by fault), it
	// re-derives the seeded checksum over the canary region the body
	// planted and reports whether that memory is intact. The report rides
	// the run result and the persistent store. See internal/attacks.
	Canary func(m *core.Machine) CanaryReport
}

// registry holds every workload keyed by name. hidden marks entries that
// resolve through ByName but are excluded from All()/Names(): the Appendix
// Table 5 benchmarks that crash under the capability ABIs, and the attack
// corpus (internal/attacks), which is run only by the security experiment.
var (
	registry = map[string]*Workload{}
	hidden   = map[string]bool{}
)

func register(w *Workload) *Workload {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate %q", w.Name))
	}
	registry[w.Name] = w
	return w
}

// RegisterAttack registers an attack-corpus workload (see
// internal/attacks): resolvable through ByName and runnable by tools and
// the security experiment, but excluded from All()/Names() so the paper's
// campaign grid and every -all artefact are untouched. Attack workloads
// must carry a Canary witness.
func RegisterAttack(w *Workload) *Workload {
	if w.Canary == nil {
		panic(fmt.Sprintf("workloads: attack %q has no canary witness", w.Name))
	}
	register(w)
	hidden[w.Name] = true
	return w
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (try one of %v)", name, Names())
	}
	return w, nil
}

// Catalogued reports whether w is one of the registry's own workloads, in
// All() or Faulty(): neither an attack-corpus entry nor a workload built
// outside the registry.
func Catalogued(w *Workload) bool { return registry[w.Name] == w && w.Canary == nil }

// Names returns the runnable workload names, sorted (the crashing
// Appendix Table 5 entries and the attack corpus are excluded; see Faulty
// and internal/attacks).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		if !hidden[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// All returns every workload in name order.
func All() []*Workload {
	var out []*Workload
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// Selected returns the 12 representative benchmarks of Table 3, in the
// paper's column order.
func Selected() []*Workload {
	order := []string{
		"510.parest_r", "519.lbm_r", "520.omnetpp_r", "523.xalancbmk_r",
		"531.deepsjeng_r", "541.leela_r", "544.nab_r", "557.xz_r",
		"llama-inference", "llama-matmul", "sqlite", "quickjs",
	}
	var out []*Workload
	for _, n := range order {
		out = append(out, registry[n])
	}
	return out
}

// TopDownSet returns the 6 workloads of Table 4, in the paper's order.
func TopDownSet() []*Workload {
	order := []string{
		"519.lbm_r", "520.omnetpp_r", "541.leela_r",
		"llama-inference", "sqlite", "quickjs",
	}
	var out []*Workload
	for _, n := range order {
		out = append(out, registry[n])
	}
	return out
}

// rng is a small deterministic xorshift64* generator; workloads must not
// use math/rand's global state so runs stay reproducible.
type rng uint64

func newRNG(seed uint64) *rng {
	r := rng(seed*2685821657736338717 + 1)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 2685821657736338717
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// chance returns true with probability num/den.
func (r *rng) chance(num, den int) bool { return r.intn(den) < num }
