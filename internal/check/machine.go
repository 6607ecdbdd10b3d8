package check

import "cherisim/internal/core"

// AttachMachine installs lockstep checkers behind every cache and TLB of a
// freshly built machine — L1I/L1D/L2/LLC and both L1 TLBs plus the shared
// L2 TLB (attached once; the second hierarchy's view is skipped via the
// shadow test) — and behind its heap's owner index and its simulated
// memory. Call it from a machine setup hook, before the machine executes
// anything. No LLC is shared between machines: a co-running machine's
// post-L2 traffic goes to the SoC fabric's slices, which the slice setup
// hook of a co-run shadows (see AttachCache).
func (c *Collector) AttachMachine(m *core.Machine) {
	AttachCache(c, m.L1I)
	AttachCache(c, m.L1D)
	AttachCache(c, m.L2)
	AttachCache(c, m.LLC)
	AttachTLB(c, m.ITLB.L1)
	AttachTLB(c, m.DTLB.L1)
	AttachTLB(c, m.ITLB.L2)
	if m.DTLB.L2 != m.ITLB.L2 {
		AttachTLB(c, m.DTLB.L2)
	}
	AttachHeap(c, m.Heap)
	AttachMemory(c, m.Mem)
}
