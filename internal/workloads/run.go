package workloads

import (
	"errors"

	"cherisim/internal/core"
)

// ExecuteHooked is the one machine-execution primitive: it runs workload w
// at the given scale (at least 1) on a fresh machine built from cfg and
// returns the machine with its counters finalized; capability faults
// surface as the returned error. setup, when non-nil, is invoked on the
// fresh machine before the body runs, so the session can install its
// supervision, lockstep shadows and attribution without the workload
// kernels knowing. A non-Fault panic escaping the body is contained by
// Machine.Run; the workload name is stamped onto it here. Measurements go
// through experiments.Session, which adds the store, deduplication and
// worker bound.
func ExecuteHooked(w *Workload, cfg core.Config, scale int, setup func(*core.Machine)) (*core.Machine, error) {
	if scale < 1 {
		scale = 1
	}
	m := core.NewMachine(cfg)
	if setup != nil {
		setup(m)
	}
	err := m.Run(func(m *core.Machine) { w.Run(m, scale) })
	var pe *core.PanicError
	if errors.As(err, &pe) && pe.Workload == "" {
		pe.Workload = w.Name
	}
	return m, err
}
