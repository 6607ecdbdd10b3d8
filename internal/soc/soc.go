// Package soc co-runs multiple simulated Morello cores on a topology-aware
// SoC fabric: a mesh or ring network-on-chip whose nodes hold the cores and
// the address-interleaved slices of one shared system-level cache. It
// extends the paper's single-core methodology to the multiprogrammed case
// the quad-core Morello SoC supports (§2.2 describes the 1 MB LL cache
// shared by all four cores; the paper disabled SMT and measured one core at
// a time) and on to many-core fabrics. Cores execute one quantum per epoch
// concurrently and their LLC traffic is merged at every epoch barrier in a
// fixed order, so co-run results are exactly reproducible at any host
// parallelism.
package soc

import (
	"fmt"

	"cherisim/internal/cache"
	"cherisim/internal/core"
)

// CoreSpec describes one core's configuration and workload body.
type CoreSpec struct {
	Config core.Config
	Body   func(*core.Machine)
	// Setup, when set, runs on the freshly built machine after its fabric
	// port is attached and before the core executes anything (the lockstep
	// checker hooks in here). It must not install a quantum hook — the
	// scheduler owns that.
	Setup func(*core.Machine)
}

// Result holds one core's finished machine (counters finalized) and the
// capability fault that terminated it, if any.
type Result struct {
	Machine *core.Machine
	Err     error
}

// QuantumUops is the scheduling quantum: each core executes this many µops
// per epoch. Small enough that cache interleaving is realistic, large
// enough to keep scheduling overhead negligible.
const QuantumUops = 8192

// GeometryError reports co-run specs that disagree on the shared LLC
// geometry: the slices are carved from one physical structure, so every
// core must describe it identically (an ablation that resizes the LLC must
// resize it for all cores). Core 0's configuration is the reference.
type GeometryError struct {
	Core      int          // first core whose LLC config diverges
	Want, Got cache.Config // core 0's geometry vs the divergent one
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("soc: core %d LLC geometry %+v disagrees with core 0's %+v: co-running cores share one physical LLC",
		e.Core, e.Got, e.Want)
}

// validateLLCGeometry checks that every spec describes the same shared LLC.
func validateLLCGeometry(specs []CoreSpec) error {
	if len(specs) == 0 {
		return nil
	}
	want := specs[0].Config.LLC
	for i := 1; i < len(specs); i++ {
		if got := specs[i].Config.LLC; got != want {
			return &GeometryError{Core: i, Want: want, Got: got}
		}
	}
	return nil
}
