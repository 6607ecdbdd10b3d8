package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cherisim/internal/abi"
	"cherisim/internal/cap"
	"cherisim/internal/compartment"
	"cherisim/internal/core"
)

func init() {
	register(&Experiment{
		ID:      "ext-compartment",
		Title:   "Extension: compartmentalized SQL engine (sealed-capability domain crossings)",
		Section: "§3.3 — SQLite as a compartmentalization use case; §6 vs SGX/TrustZone",
		Run:     runExtCompartment,
	})
}

// compartmentalizedQueries runs a SQLite-speedtest1-like query loop where
// every B-tree descent crosses into a storage compartment holding the
// pages in its private heap, and returns through the VM domain —
// crossingsPerQuery sealed-capability domain transitions per query.
func compartmentalizedQueries(m *core.Machine, queries, rowsPerQuery int, compartmentalized bool) error {
	m.Func("vdbe_main", 2048, 160)
	g := compartment.NewManager(m)
	storage, err := g.Create("sqlite.btree", 4096, 192, 1<<20)
	if err != nil {
		return err
	}

	// Pages live in the storage compartment's private heap.
	const pages = 64
	pageBytes := uint64(512)
	pagePtrs := make([]core.Ptr, pages)
	for i := range pagePtrs {
		p, err := storage.Alloc(pageBytes)
		if err != nil {
			return err
		}
		pagePtrs[i] = p
	}

	seed := uint64(0x3007)
	lookup := func(heap core.Ptr) {
		for r := 0; r < rowsPerQuery; r++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			page := pagePtrs[seed%pages]
			for probe := 0; probe < 4; probe++ {
				m.LoadDep(page+core.Ptr((seed>>8)%(pageBytes-8)), 8)
				m.ALU(3)
				m.BranchAt(3001, probe < 3)
			}
			m.Store(page, seed, 8)
		}
		_ = heap
	}

	for q := 0; q < queries; q++ {
		m.ALU(20) // VM opcode work in the main domain
		m.BranchAt(3002, q+1 < queries)
		if compartmentalized {
			if err := storage.Call(func(data cap.Capability, heap core.Ptr) {
				lookup(heap)
			}); err != nil {
				return err
			}
		} else {
			lookup(0)
		}
	}
	return nil
}

// runExtCompartment measures the cost of CHERI compartmentalization for a
// chatty domain boundary (one crossing per query) against the monolithic
// baseline, per ABI. The contrast the paper's §6 draws — CHERI crossings
// avoid the context-switch costs of SGX/TrustZone — is made concrete: the
// measured per-crossing cost is tens of cycles, not thousands.
func runExtCompartment(s *Session) (string, error) {
	const queries, rows = 2000, 6
	abis := []abi.ABI{abi.Hybrid, abi.Benchmark, abi.Purecap}

	// One monolithic and one compartmentalized kernel per ABI, all
	// independent: run them across the fleet, then render in ABI order.
	krs := make([]*RunData, 2*len(abis))
	err := fanOut(len(krs), func(i int) (err error) {
		comp := i%2 == 1
		id := fmt.Sprintf("compartment/sqlite:q=%d:r=%d:comp=%t", queries, rows, comp)
		krs[i], err = s.RunKernel(id, core.DefaultConfig(abis[i/2]), func(m *core.Machine) {
			if err := compartmentalizedQueries(m, queries, rows, comp); err != nil {
				panic(err)
			}
		})
		return err
	})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("Extension: compartmentalized SQL storage engine, one domain crossing per query\n\n")
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "abi\tmonolithic(ms)\tcompartmentalized(ms)\toverhead\tcycles/crossing")
	for j, a := range abis {
		mono, comp := krs[2*j], krs[2*j+1]
		monoS, compS := mono.Metrics.Seconds, comp.Metrics.Seconds
		perCrossing := float64(comp.Metrics.Cycles-mono.Metrics.Cycles) / queries
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.1f%%\t%.0f\n",
			a, monoS*1e3, compS*1e3, (compS/monoS-1)*100, perCrossing)
	}
	tw.Flush()
	b.WriteString("\nEach crossing is a sealed-capability pair invocation (switcher + capability\n")
	b.WriteString("jump): tens of cycles, versus thousands for an SGX/TrustZone transition or\n")
	b.WriteString("a process switch — the §6 comparison, quantified. The purecap ABI pays the\n")
	b.WriteString("Morello PCC-resteer on top; the benchmark ABI shows the switcher cost alone.\n")
	return b.String(), nil
}
