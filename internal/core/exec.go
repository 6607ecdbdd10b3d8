package core

import (
	"cherisim/internal/branch"
	"cherisim/internal/cap"
	"cherisim/internal/isa"
	"cherisim/internal/pmu"
	"cherisim/internal/trace"
)

// Ptr is a simulated virtual address as seen by workload code. Under the
// purecap ABIs the in-memory representation of a Ptr is a 128-bit
// capability; in registers the simulator tracks the address and derives
// the capability (bounds from the owning allocation) when it must be
// materialised in memory.
type Ptr uint64

// Dependency describes whether a load's result feeds the address of the
// next memory operation. Dependent (pointer-chasing) misses expose their
// full latency; independent (streaming) misses overlap up to Config.MLP
// ways.
type Dependency bool

// Dependency values.
const (
	Indep Dependency = false
	Dep   Dependency = true
)

// hierLevel identifies which level of the hierarchy served an access.
type hierLevel int

const (
	levelL1 hierLevel = iota
	levelL2
	levelLLC
	levelDRAM
)

// dataPath sends one line-sized probe through L1D→L2→LLC→DRAM, propagating
// write-backs, and returns the serving level and its latency.
func (m *Machine) dataPath(addr uint64, write bool) (hierLevel, uint64) {
	r1 := m.L1D.Access(addr, write)
	if r1.Hit {
		return levelL1, m.Cfg.L1D.HitLatency
	}
	if r1.WriteBack {
		m.l2Path(r1.WriteBackAddr, true)
	}
	return m.l2Path(addr, false)
}

// l2Path probes L2 then LLC then DRAM for a line fill or write-back. The
// LLC may be shared between cores (see internal/soc); llcSalt disambiguates
// the address spaces of co-running processes, and the machine counts its
// own LLC activity so shared-cache statistics stay per core.
func (m *Machine) l2Path(addr uint64, write bool) (hierLevel, uint64) {
	r2 := m.L2.Access(addr, write)
	if r2.Hit {
		return levelL2, m.Cfg.L2.HitLatency
	}
	if port := m.llcPort; port != nil {
		// Topology-aware fabric (internal/soc): the port prices NoC hops
		// plus slice-hit or DRAM latency; per-core read statistics stay on
		// the machine either way.
		if r2.WriteBack {
			port.Access(r2.WriteBackAddr|m.llcSalt, true)
		}
		if !write {
			m.llcRdAcc++
		}
		hit, lat := port.Access(addr|m.llcSalt, write)
		if hit {
			return levelLLC, lat
		}
		if !write {
			m.llcRdMiss++
		}
		return levelDRAM, lat
	}
	if r2.WriteBack {
		m.LLC.Access(r2.WriteBackAddr|m.llcSalt, true)
	}
	if !write {
		m.llcRdAcc++
	}
	r3 := m.LLC.Access(addr|m.llcSalt, write)
	if r3.Hit {
		return levelLLC, m.Cfg.LLC.HitLatency
	}
	if !write {
		m.llcRdMiss++
	}
	return levelDRAM, m.Cfg.DRAMLatency
}

// accountLoadStall attributes a load's latency to the top-down memory
// buckets, applying MLP overlap for independent accesses.
func (m *Machine) accountLoadStall(lvl hierLevel, lat uint64, dep Dependency) {
	m.accountLoadStallCap(lvl, lat, dep, false)
}

// streamFactor models the N1 hardware prefetcher: an independent load that
// continues one of several concurrently-tracked sequential line streams
// has most of its miss latency hidden by prefetch. It returns the exposure
// multiplier and updates the stream-tracker state (round-robin over
// numStreams entries, like the N1's multi-stream prefetch engine).
func (m *Machine) streamFactor(addr uint64, dep Dependency) float64 {
	line := addr &^ 63
	for i := range m.streams {
		h := m.streams[i]
		if line == h || line == h+64 || line == h+128 {
			m.streams[i] = line
			if bool(dep) {
				return 1
			}
			return 0.15
		}
	}
	m.streams[m.streamNext] = line
	// len(m.streams) is a power of two; the mask keeps the round-robin
	// advance out of the integer-division unit on the per-access hot path.
	m.streamNext = (m.streamNext + 1) & (len(m.streams) - 1)
	return 1
}

// accountLoadStallCap is accountLoadStall with capability-load semantics:
// a dependent capability load cannot overlap at all — the consumer needs
// the full 128 bits plus the tag before it can even begin translation.
func (m *Machine) accountLoadStallCap(lvl hierLevel, lat uint64, dep Dependency, capLoad bool) {
	exposure := float64(lat)
	if dep {
		// Pointer chases still overlap slightly with surrounding work;
		// capability chases do not.
		if capLoad {
			exposure *= 1.0
		} else {
			exposure *= 0.9
		}
	} else {
		exposure /= m.Cfg.MLP
	}
	switch lvl {
	case levelL1:
		// L1 hits are pipelined; only a sliver of exposure remains.
		m.beMemL1 += exposure * 0.15
	case levelL2:
		m.beMemL2 += exposure
	default:
		m.beMemExt += exposure
	}
}

// translateD runs the data-side TLB for addr, charging walk latency to the
// backend memory bucket (address translation blocks the load). The
// last-translation fast path settles same-page accesses — the dominant
// case in every workload's inner loops — as a verified L1 hit without
// walking the hierarchy; its accounting is identical to a Translate that
// hits L1 (zero added latency).
func (m *Machine) translateD(addr uint64) {
	if m.DTLB.FastHit(addr) {
		return
	}
	if lat := m.DTLB.Translate(addr); lat > 0 {
		m.beMemExt += float64(lat) * 0.8
	}
}

// fetchAdvance models frontend activity for n sequential µops: the fetch
// PC walks through the current function's code region (wrapping, which
// models loop reuse), touching the L1I and ITLB at line granularity.
//
// The walk is O(cache-lines-touched), not O(µops): whenever the PC sits
// mid-line, the steps remaining on that line are consumed in one closed-form
// jump (function bases and sizes are 64-byte aligned, so the wrap point
// coincides with a line boundary and the skip can never cross it). The probe
// sequence — ITLB then L1I then the L2 path, once per line transition — is
// exactly the per-µop loop's.
func (m *Machine) fetchAdvance(nUops uint64) {
	if m.curFn == nil || m.curFn.Size == 0 {
		return
	}
	f := m.curFn
	end := f.Base + f.Size
	// Quick path for the dominant call shape: one µop whose next PC stays
	// on the already-probed line (no wrap — sizes are 64-aligned, so a
	// non-wrapping PC with a nonzero line offset cannot cross a boundary).
	if nUops == 1 {
		if pc := m.fetchPC + 4; pc < end && pc&63 != 0 && pc&^63 == m.lastLine {
			m.fetchPC = pc
			return
		}
	}
	pc, last := m.fetchPC, m.lastLine
	for n := nUops; n > 0; {
		pc += 4
		if pc >= end {
			pc = f.Base
		}
		line := pc &^ 63
		if line != last {
			last = line
			if !m.ITLB.FastHit(line) {
				if lat := m.ITLB.Translate(line); lat > 0 {
					m.feStall += float64(lat)
				}
			}
			if r := m.L1I.Access(line, false); !r.Hit {
				_, lat := m.l2Path(line, false)
				// Fetch misses stall the frontend; decoupling hides a
				// fraction.
				m.feStall += float64(lat) * 0.7
			}
		}
		n--
		if n == 0 {
			break
		}
		// Steps until the PC reaches the next line boundary; all but the
		// boundary-crossing step itself stay on this line and cannot probe.
		if skip := (line+64-pc)/4 - 1; skip > 0 {
			if skip > n {
				skip = n
			}
			pc += 4 * skip
			n -= skip
		}
	}
	m.fetchPC, m.lastLine = pc, last
}

// uop records one classified µop: class counters, fetch activity and the
// auxiliary-instruction fraction.
func (m *Machine) uop(c isa.Class, n uint64) {
	if n == 0 {
		return
	}
	m.classUops += n
	m.auxUops += float64(n) * m.Cfg.AuxInstrFrac
	switch c {
	case isa.LoadInt, isa.LoadCap:
		m.C.Add(pmu.LD_SPEC, n)
	case isa.StoreInt, isa.StoreCap:
		m.C.Add(pmu.ST_SPEC, n)
	case isa.DP:
		m.C.Add(pmu.DP_SPEC, n)
	case isa.ASE:
		m.C.Add(pmu.ASE_SPEC, n)
	case isa.VFP:
		m.C.Add(pmu.VFP_SPEC, n)
	case isa.Crypto:
		m.C.Add(pmu.CRYPTO_SPEC, n)
	case isa.BranchImmed:
		m.C.Add(pmu.BR_IMMED_SPEC, n)
	case isa.BranchIndirect:
		m.C.Add(pmu.BR_INDIRECT_SPEC, n)
	case isa.BranchReturn:
		m.C.Add(pmu.BR_RETURN_SPEC, n)
	}
	m.fetchAdvance(n)
	if !m.profileOff {
		m.attribute(n)
	}
	if m.OnQuantum != nil {
		m.sinceQuantum += n
		if m.sinceQuantum >= m.quantumUops {
			m.sinceQuantum = 0
			m.OnQuantum()
		}
	}
}

// memAddrOverhead accrues the ABI's fractional per-memory-access DP cost
// (captable indirection, capability-relative addressing) and emits whole
// µops as the fraction accumulates.
func (m *Machine) memAddrOverhead() {
	m.dpCarry += m.ABI.MemAccessDPOps()
	if m.dpCarry >= 1 {
		n := uint64(m.dpCarry)
		m.dpCarry -= float64(n)
		m.uop(isa.DP, n)
	}
}

// checkBounds applies the spatial-safety check a capability dereference
// performs. Hybrid code has no such checks. Accesses to the stack and text
// segments are covered by their region capabilities; heap accesses must lie
// inside a live allocation.
func (m *Machine) checkBounds(op string, addr, size uint64) {
	if !m.Cfg.EnforceBounds || !m.ABI.PointersAreCapabilities() {
		return
	}
	if addr >= StackBase-(64<<20) || addr < HeapBase {
		return // stack, globals and text are bounded by region capabilities
	}
	if addr >= m.ownBase && addr+size <= m.ownBase+m.ownSize {
		return
	}
	base, sz, ok := m.Heap.Owner(addr)
	if ok && addr+size <= base+sz {
		m.ownBase, m.ownSize = base, sz
		return
	}
	m.fault(op, addr, cap.ErrBoundsViolation)
}

// Load performs an independent (streaming) data load of size bytes and
// returns the loaded value.
func (m *Machine) Load(p Ptr, size uint64) uint64 { return m.load(p, size, Indep) }

// LoadDep performs a dependent data load: its miss latency is fully
// exposed, as when the result feeds the next access's address.
func (m *Machine) LoadDep(p Ptr, size uint64) uint64 { return m.load(p, size, Dep) }

func (m *Machine) load(p Ptr, size uint64, dep Dependency) uint64 {
	addr := uint64(p)
	m.checkBounds("load", addr, size)
	m.uop(isa.LoadInt, 1)
	m.memAddrOverhead()
	m.C.Inc(pmu.MEM_ACCESS_RD)
	m.translateD(addr)
	sf := m.streamFactor(addr, dep)
	lvl, lat := m.dataPath(addr, false)
	m.Tracer.Record(trace.KindLoad, addr, uint32(size), uint8(lvl))
	m.accountLoadStall(lvl, uint64(float64(lat)*sf), dep)
	if end := (addr + size - 1) &^ 63; size > 0 && end != addr&^63 {
		m.dataPath(end, false) // line-straddling access
	}
	if size > 8 {
		size = 8
	}
	return m.Mem.ReadUint(addr, size)
}

// Store performs a data store of size bytes.
func (m *Machine) Store(p Ptr, val, size uint64) {
	addr := uint64(p)
	m.checkBounds("store", addr, size)
	m.uop(isa.StoreInt, 1)
	m.memAddrOverhead()
	m.C.Inc(pmu.MEM_ACCESS_WR)
	m.translateD(addr)
	lvl, lat := m.dataPath(addr, true)
	m.Tracer.Record(trace.KindStore, addr, uint32(size), uint8(lvl))
	if lvl != levelL1 {
		// Write-allocate fill time is mostly hidden by the store buffer.
		m.beMemExt += float64(lat) * 0.15
	}
	if size > 8 {
		size = 8
	}
	m.Mem.WriteUint(addr, val, size)
}

// LoadVia performs a load of size bytes at addr through a pointer derived
// from base's allocation. Under the capability ABIs the access is checked
// against base's capability — its allocation's bounds — rather than
// whatever allocation addr happens to land in. This models C pointer
// arithmetic provenance: computing an address beyond the original object's
// bounds and dereferencing it is exactly the porting bug class behind the
// paper's Appendix Table 5 "in-address-space security exception" crashes.
func (m *Machine) LoadVia(base, addr Ptr, size uint64) uint64 {
	m.checkProvenance("load", base, addr, size)
	return m.load(addr, size, Dep)
}

// StoreVia is the store counterpart of LoadVia.
func (m *Machine) StoreVia(base, addr Ptr, val, size uint64) {
	m.checkProvenance("store", base, addr, size)
	m.Store(addr, val, size)
}

// checkProvenance validates [addr, addr+size) against the bounds of the
// allocation that base points into (the capability the pointer was derived
// from). No check under hybrid.
func (m *Machine) checkProvenance(op string, base, addr Ptr, size uint64) {
	if !m.Cfg.EnforceBounds || !m.ABI.PointersAreCapabilities() {
		return
	}
	if uint64(base) < HeapBase || uint64(base) >= StackBase-(64<<20) {
		return // region capabilities cover non-heap segments
	}
	ownBase, ownSize, ok := m.Heap.Owner(uint64(base))
	if !ok {
		m.fault(op, uint64(base), cap.ErrTagViolation)
	}
	if uint64(addr) < ownBase || uint64(addr)+size > ownBase+ownSize {
		m.fault(op, uint64(addr), cap.ErrBoundsViolation)
	}
}

// LoadPtr loads a pointer-typed value: an 8-byte integer under hybrid, a
// 16-byte tagged capability under the purecap ABIs (with the hardware tag
// check — dereferencing an untagged slot later faults). Pointer loads are
// dependent by nature.
func (m *Machine) LoadPtr(p Ptr) Ptr {
	addr := uint64(p)
	if !m.ABI.PointersAreCapabilities() {
		m.checkBounds("loadptr", addr, 8)
		m.uop(isa.LoadInt, 1)
		m.C.Inc(pmu.MEM_ACCESS_RD)
		m.translateD(addr)
		lvl, lat := m.dataPath(addr, false)
		m.Tracer.Record(trace.KindLoad, addr, 8, uint8(lvl))
		m.accountLoadStall(lvl, lat, Dep)
		return Ptr(m.Mem.ReadUint(addr, 8))
	}
	m.checkBounds("loadptr", addr, cap.Size)
	m.uop(isa.LoadCap, 1)
	m.uop(isa.DP, m.ABI.PtrArithDPOps())
	m.memAddrOverhead()
	m.C.Inc(pmu.MEM_ACCESS_RD)
	m.C.Inc(pmu.CAP_MEM_ACCESS_RD)
	m.C.Inc(pmu.MEM_ACCESS_RD_CTAG)
	m.translateD(addr)
	lvl, lat := m.dataPath(addr, false)
	m.Tracer.Record(trace.KindCapLoad, addr, 16, uint8(lvl))
	m.accountLoadStallCap(lvl, lat, Dep, true)
	enc, tag, err := m.Mem.ReadCap(addr &^ (cap.Size - 1))
	if err != nil {
		m.fault("loadptr", addr, err)
	}
	c := cap.Decode(enc, tag)
	// A valid capability stripped of its load permission (CLRPERM, or an
	// injected permission drop) cannot authorise the dereference this
	// pointer exists for; surface the violation at the load. Untagged slots
	// (NULL, plain integers) pass — their dereference faults on the tag.
	if c.Valid() && !c.Perms().Has(cap.PermLoad) {
		m.fault("loadptr", addr, cap.ErrPermViolation)
	}
	return Ptr(c.Address())
}

// LoadPtrChecked is LoadPtr followed by the dereference-readiness check:
// it faults immediately if the loaded slot did not hold a valid capability
// (the CHERI use-after-overwrite / forged-pointer case). Returns the
// pointer for valid slots.
func (m *Machine) LoadPtrChecked(p Ptr) Ptr {
	addr := uint64(p)
	v := m.LoadPtr(p)
	if m.ABI.PointersAreCapabilities() && !m.Mem.TagAt(addr) {
		m.fault("loadptr", addr, cap.ErrTagViolation)
	}
	return v
}

// StorePtr stores a pointer-typed value: an 8-byte integer under hybrid, a
// 16-byte capability (deriving bounds from the target's allocation) under
// the purecap ABIs.
func (m *Machine) StorePtr(p Ptr, target Ptr) {
	addr := uint64(p)
	if !m.ABI.PointersAreCapabilities() {
		m.checkBounds("storeptr", addr, 8)
		m.uop(isa.StoreInt, 1)
		m.C.Inc(pmu.MEM_ACCESS_WR)
		m.translateD(addr)
		lvl, _ := m.dataPath(addr, true)
		m.Tracer.Record(trace.KindStore, addr, 8, uint8(lvl))
		m.Mem.WriteUint(addr, uint64(target), 8)
		return
	}
	m.checkBounds("storeptr", addr, cap.Size)
	m.uop(isa.StoreCap, 1)
	m.uop(isa.DP, m.ABI.PtrArithDPOps())
	m.memAddrOverhead()
	m.C.Inc(pmu.MEM_ACCESS_WR)
	m.C.Inc(pmu.CAP_MEM_ACCESS_WR)
	m.C.Inc(pmu.MEM_ACCESS_WR_CTAG)
	m.translateD(addr)
	lvl, _ := m.dataPath(addr, true)
	m.Tracer.Record(trace.KindCapStore, addr, 16, uint8(lvl))
	// 128-bit store through 64-bit-sized store buffers: extra occupancy
	// surfaces as core-bound backend pressure (§2.2).
	m.beCore += m.Cfg.CapStoreQueuePenalty
	c := m.deriveCap(uint64(target))
	enc, tag := c.Encode()
	if err := m.Mem.WriteCap(addr&^(cap.Size-1), enc, tag); err != nil {
		m.fault("storeptr", addr, err)
	}
}

// deriveCap builds the capability value for a pointer to target: bounds of
// the owning heap allocation when one exists, the region capability
// otherwise, and an untagged capability for dangling/forged targets.
func (m *Machine) deriveCap(target uint64) cap.Capability {
	if target == 0 {
		return cap.Capability{} // NULL: untagged zero capability
	}
	if target >= HeapBase && target < StackBase-(64<<20) {
		if base, sz, ok := m.Heap.Owner(target); ok {
			if c, err := cap.Root().SetBounds(base, sz); err == nil {
				return c.ClearPerms(cap.PermsAll &^ cap.PermsData).WithAddress(target)
			}
		}
		// Dangling pointer: representable but untagged.
		return cap.New(target, 16, cap.PermsData).ClearTag().WithAddress(target)
	}
	return m.ddc.WithAddress(target)
}

// CapCodegen executes n extra data-processing µops that purecap code
// generation emits and hybrid code does not: capability copies for
// argument passing, bounds re-derivation, captable loads for globals.
// Workload kernels place these where the paper's measured dynamic
// instruction-count inflation indicates the real compiler emits them
// (derived from Table 3 as time-ratio x IPC-ratio per workload); hybrid
// lowering makes them free.
func (m *Machine) CapCodegen(n uint64) {
	if !m.ABI.PointersAreCapabilities() {
		return
	}
	m.uop(isa.DP, n)
	m.beCore += float64(n) * 0.05
}

// ALU executes n integer data-processing µops.
func (m *Machine) ALU(n uint64) {
	m.uop(isa.DP, n)
	m.beCore += float64(n) * 0.05
}

// CapManip executes n capability-manipulation µops (bounds setting, value
// derivation); they occupy the integer pipes and count as DP_SPEC.
func (m *Machine) CapManip(n uint64) {
	m.uop(isa.DP, n)
	m.beCore += float64(n) * 0.08
}

// FP executes n floating-point µops.
func (m *Machine) FP(n uint64) {
	m.uop(isa.VFP, n)
	m.beCore += float64(n) * 0.18
}

// SIMD executes n advanced-SIMD µops.
func (m *Machine) SIMD(n uint64) {
	m.uop(isa.ASE, n)
	m.beCore += float64(n) * 0.12
}

// Crypto executes n cryptographic-extension µops.
func (m *Machine) Crypto(n uint64) {
	m.uop(isa.Crypto, n)
	m.beCore += float64(n) * 0.12
}

// Branch executes a conditional direct branch with the given outcome. The
// branch is keyed by the current fetch PC, which varies across loop
// iterations — use BranchAt with a stable site for branches that a real
// program would express at one code location, or the predictor cannot
// learn their bias.
func (m *Machine) Branch(taken bool) {
	m.uop(isa.BranchImmed, 1)
	out := m.BP.Resolve(m.fetchPC, branch.Immed, taken, 0, false)
	m.accountBranch(out)
}

// BranchAt executes a conditional direct branch at a stable call site:
// site identifies the static branch instruction (any value unique within
// the workload), so the direction predictor trains per-site history
// exactly as it would for a fixed PC in real code.
func (m *Machine) BranchAt(site uint64, taken bool) {
	m.uop(isa.BranchImmed, 1)
	out := m.BP.Resolve(TextBase+site*4, branch.Immed, taken, 0, false)
	m.accountBranch(out)
}

// Call transfers control to f. crossDSO marks an inter-library call, which
// under the purecap ABI installs new PCC bounds (the Morello predictor
// stall the benchmark ABI removes).
func (m *Machine) Call(f *Fn, crossDSO bool) {
	pccChanged := m.ABI.CapabilityJumps() && crossDSO
	m.call(f, branch.Call, pccChanged)
}

// CallVirtual transfers control to f through a function pointer (virtual
// dispatch); under purecap this is a capability branch to a sentry and
// always changes PCC bounds. The dispatch site is the calling function
// (one BTB entry per caller); use CallVirtualAt for distinct static sites.
func (m *Machine) CallVirtual(f *Fn) {
	site := m.fetchPC
	if m.curFn != nil {
		site = m.curFn.Base
	}
	m.callAt(site, f, branch.Indirect, m.ABI.CapabilityJumps())
}

// CallVirtualAt is CallVirtual with an explicit static dispatch site, so
// the branch target buffer trains per-site as it would for real code.
func (m *Machine) CallVirtualAt(site uint64, f *Fn) {
	m.callAt(TextBase+site*4, f, branch.Indirect, m.ABI.CapabilityJumps())
}

func (m *Machine) call(f *Fn, kind branch.Kind, pccChanged bool) {
	m.callAt(m.fetchPC, f, kind, pccChanged)
}

func (m *Machine) callAt(site uint64, f *Fn, kind branch.Kind, pccChanged bool) {
	switch kind {
	case branch.Indirect:
		m.uop(isa.BranchIndirect, 1)
	default:
		m.uop(isa.BranchImmed, 1)
	}
	m.uop(isa.DP, m.ABI.CallOverheadDPOps())
	out := m.BP.Resolve(site, kind, true, f.Base, pccChanged)
	m.accountBranch(out)
	m.capJumpCost()
	m.BP.PushReturn(m.fetchPC + 4)

	// Spill the return address and frame pointer to the stack: two slots
	// of the ABI's spill size. Under purecap these are capability stores.
	m.stack = append(m.stack, frame{retAddr: m.fetchPC + 4, fn: m.curFn, pccChanged: pccChanged, sp: m.sp})
	m.sp -= f.Frame + 2*m.ABI.SpillSlotSize()
	m.spill(m.sp, true)
	m.spill(m.sp+m.ABI.SpillSlotSize(), true)

	m.curFn = f
	m.fetchPC = f.Base
	m.lastLine = ^uint64(0)
}

// Return transfers control back to the caller.
func (m *Machine) Return() {
	if len(m.stack) == 0 {
		return
	}
	fr := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]

	// Reload the spilled slots.
	m.spill(m.sp, false)
	m.spill(m.sp+m.ABI.SpillSlotSize(), false)
	m.sp = fr.sp

	m.uop(isa.BranchReturn, 1)
	out := m.BP.Resolve(m.fetchPC, branch.Return, true, fr.retAddr, fr.pccChanged)
	m.accountBranch(out)
	m.capJumpCost()

	m.curFn = fr.fn
	m.fetchPC = fr.retAddr
	m.lastLine = ^uint64(0)
}

// spill moves one saved-register slot to/from the stack, as capability
// traffic under the purecap ABIs (return addresses are capabilities).
func (m *Machine) spill(addr uint64, write bool) {
	capSlot := m.ABI.PointersAreCapabilities()
	if write {
		if capSlot {
			m.uop(isa.StoreCap, 1)
			m.C.Inc(pmu.CAP_MEM_ACCESS_WR)
			m.C.Inc(pmu.MEM_ACCESS_WR_CTAG)
			m.beCore += m.Cfg.CapStoreQueuePenalty
		} else {
			m.uop(isa.StoreInt, 1)
		}
		m.C.Inc(pmu.MEM_ACCESS_WR)
		m.translateD(addr)
		m.dataPath(addr, true)
		return
	}
	if capSlot {
		m.uop(isa.LoadCap, 1)
		m.C.Inc(pmu.CAP_MEM_ACCESS_RD)
		m.C.Inc(pmu.MEM_ACCESS_RD_CTAG)
	} else {
		m.uop(isa.LoadInt, 1)
	}
	m.C.Inc(pmu.MEM_ACCESS_RD)
	m.translateD(addr)
	lvl, lat := m.dataPath(addr, false)
	m.accountLoadStall(lvl, lat, Indep)
}

// capJumpCost charges the base capability-branch cost: every call and
// return in the purecap ABI is a capability jump that the Morello frontend
// re-validates, independent of bounds changes. The benchmark ABI's integer
// jumps avoid it, and a capability-aware predictor (TracksPCCBounds) hides
// it.
func (m *Machine) capJumpCost() {
	if m.ABI.CapabilityJumps() && !m.Cfg.TracksPCCBounds {
		m.pccStall += branch.CapJumpCost
	}
}

// accountBranch charges a resolved branch's cost with out.StallCycles as
// the single source of truth for the total: the PCC-bounds resteer
// component (when flagged) goes to the frontend pcc-stall account and the
// remainder — the mispredict flush — to bad speculation. Re-deriving the
// penalties from the Mispredict/PCCStall flags here would let the
// predictor's cost model and the cycle accounting silently diverge.
func (m *Machine) accountBranch(out branch.Outcome) {
	stall := float64(out.StallCycles)
	if out.PCCStall {
		pcc := float64(branch.PCCStallPenalty)
		if pcc > stall {
			pcc = stall
		}
		m.pccStall += pcc
		stall -= pcc
	}
	m.badSpec += stall
}

// Alloc allocates size bytes from the simulated heap, charging the
// allocator's fast-path work and, under purecap, the capability-derivation
// instructions (SCBNDS and representability rounding).
func (m *Machine) Alloc(size uint64) Ptr {
	addr, err := m.Heap.Alloc(size)
	if err != nil {
		m.fault("alloc", 0, err)
	}
	m.ALU(6) // allocator fast path
	m.uop(isa.DP, m.ABI.AllocDPOps())
	return Ptr(addr)
}

// Free releases an allocation. With temporal safety enabled the block
// enters quarantine, and a revocation sweep runs when the quarantine
// crosses its threshold.
func (m *Machine) Free(p Ptr) {
	if err := m.Heap.Free(uint64(p)); err != nil {
		m.fault("free", uint64(p), err)
	}
	m.ALU(4)
	m.ownBase, m.ownSize = 0, 0
	m.maybeRevoke()
}

// AllocRecord allocates one record of the given layout.
func (m *Machine) AllocRecord(l *Layout) Ptr { return m.Alloc(l.Size()) }

// AllocArray allocates n elements of elemSize bytes.
func (m *Machine) AllocArray(n, elemSize uint64) Ptr { return m.Alloc(n * elemSize) }
