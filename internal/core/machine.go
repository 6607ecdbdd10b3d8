// Package core assembles the simulated Morello platform — CHERI capability
// machinery, Neoverse-N1-like core model, cache/TLB hierarchy, branch
// prediction and PMU — and exposes the execution-context API that workload
// kernels program against. It is the simulator's equivalent of the
// hardware + CheriBSD substrate the paper measures: workloads perform real
// algorithms whose memory accesses, branches and capability operations flow
// through real component models, and every PMU event the paper's Table 1
// uses is produced as a side effect.
package core

import (
	"fmt"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/branch"
	"cherisim/internal/cache"
	"cherisim/internal/cap"
	"cherisim/internal/mem"
	"cherisim/internal/pmu"
	"cherisim/internal/tlb"
	"cherisim/internal/trace"
)

// ClockHz is the simulated core frequency (Morello runs at 2.5 GHz).
const ClockHz = 2.5e9

// ModelVersion names the simulator's semantic revision. Bump it whenever a
// change alters what any run measures (cost-model constants, cache/TLB
// policies, lowering, metric formulas): the persistent result store folds
// it into every cache key, so stale entries from an older model are never
// served, and the golden-baseline gate reports the mismatch instead of
// comparing incomparable numbers.
const ModelVersion = "morello-sim/1"

// Address-space layout of the simulated process.
const (
	TextBase  = 0x0000_0001_0000_0000
	HeapBase  = 0x0000_0040_0000_0000
	StackBase = 0x0000_7fff_f000_0000 // grows down
)

// Config parameterises a Machine. DefaultConfig supplies the Morello
// values; ablation experiments override individual fields.
type Config struct {
	// ABI selects hybrid, purecap-benchmark or purecap lowering.
	ABI abi.ABI
	// TracksPCCBounds enables the hypothetical capability-aware branch
	// predictor of §4.5; false models the Morello prototype.
	TracksPCCBounds bool
	// Width is the pipeline's sustained µop throughput per cycle.
	Width int
	// HeapSize bounds the simulated heap.
	HeapSize uint64
	// MLP is the memory-level parallelism achieved by independent misses.
	MLP float64
	// DRAMLatency is the external-memory access latency in cycles.
	DRAMLatency uint64
	// Cache and TLB geometries.
	L1I, L1D, L2, LLC     cache.Config
	L1ITLB, L1DTLB, L2TLB tlb.Config
	// EnforceBounds applies per-allocation spatial checks on every data
	// access (not just capability dereferences). Always on: it is cheap
	// in this model and is the point of CHERI.
	EnforceBounds bool
	// AuxInstrFrac is the fraction of extra unclassified instructions
	// (address generation, prefetches, moves) per classified µop; it only
	// affects INST_SPEC and therefore the paper's Retiring% formula.
	AuxInstrFrac float64
	// CapStoreQueuePenalty is the extra backend core-bound pressure per
	// capability store from Morello's 64-bit-sized store buffers (§2.2).
	// Set to 0 to model a capability-width store path (ablation).
	CapStoreQueuePenalty float64
	// TemporalSafety enables Cornucopia-style heap temporal safety:
	// quarantine-on-free with automatic revocation sweeps every
	// RevokeThresholdBytes of quarantined memory (default 256 KiB).
	TemporalSafety       bool
	RevokeThresholdBytes uint64
}

// DefaultConfig returns the Morello platform configuration for an ABI.
func DefaultConfig(a abi.ABI) Config {
	return Config{
		ABI:                  a,
		TracksPCCBounds:      false,
		Width:                4,
		HeapSize:             1 << 32,
		MLP:                  6,
		DRAMLatency:          230,
		L1I:                  cache.L1IConfig,
		L1D:                  cache.L1DConfig,
		L2:                   cache.L2Config,
		LLC:                  cache.LLCConfig,
		L1ITLB:               tlb.L1IConfig,
		L1DTLB:               tlb.L1DConfig,
		L2TLB:                tlb.L2Config,
		EnforceBounds:        true,
		AuxInstrFrac:         0.08,
		CapStoreQueuePenalty: 0.5,
	}
}

// Fn identifies a simulated function: a region of the text segment that
// fetch activity walks through while the function runs.
type Fn struct {
	Name     string
	Base     uint64
	Size     uint64
	Frame    uint64
	Sentry   cap.Capability // purecap function pointer (sealed entry)
	machine  *Machine
	pointers int // pointer-typed parameters, for loader modelling

	// Profiling attribution (see profile.go): per-category cycle split
	// (retiring held in raw µop units until snapshot), per-event count
	// deltas and µop count charged to this function.
	cat  [NumAttrCategories]float64
	ev   [NumAttrEvents]uint64
	uops uint64
}

type frame struct {
	retAddr    uint64
	fn         *Fn
	pccChanged bool
	sp         uint64
}

// Machine is one simulated Morello core plus its memory system, running a
// single-threaded workload under one ABI.
type Machine struct {
	Cfg Config
	ABI abi.ABI

	Mem  *mem.Memory
	L1I  *cache.Cache
	L1D  *cache.Cache
	L2   *cache.Cache
	LLC  *cache.Cache
	ITLB *tlb.Hierarchy
	DTLB *tlb.Hierarchy
	BP   *branch.Predictor
	Heap *alloc.Heap

	// C is the ground-truth PMU counter file.
	C pmu.Counters

	ddc cap.Capability // default data capability (heap+stack+globals)

	// Text segment / fetch state.
	fns      []*Fn
	nextCode uint64
	fetchPC  uint64
	lastLine uint64
	curFn    *Fn
	stack    []frame
	sp       uint64

	// Stall accumulators (cycles, fractional). Every product added to one
	// is wrapped in float64(...): that forbids fusing x*y + acc into one
	// multiply-add (Go spec, Floating-point operators), which rounds once
	// and would give arm64 hosts other cycle counts than amd64 ones.
	feStall   float64
	beMemL1   float64
	beMemL2   float64
	beMemExt  float64
	beCore    float64
	badSpec   float64
	pccStall  float64
	auxUops   float64
	dpCarry   float64
	classUops uint64
	finalized bool

	// Attribution snapshots: the category/event values at the previous
	// attribute() call, so each µop charges only its delta (profile.go).
	// lastRet tracks retiring in raw µop units; lastCat's retiring slot
	// stays zero.
	lastRet float64
	lastCat [NumAttrCategories]float64
	lastEv  [NumAttrEvents]uint64

	// owner cache for capability derivation on data accesses.
	ownBase, ownSize uint64

	// Temporal-safety state (see revoke.go).
	revokeThreshold uint64
	revocations     []RevocationStats

	// Shared-LLC support (see internal/soc): per-core LLC statistics.
	// llcPort, when set, diverts post-L2 traffic to an external sliced-LLC
	// fabric, salted with llcSalt, the address-space salt of co-running
	// processes.
	llcRdAcc, llcRdMiss uint64
	llcSalt             uint64
	llcPort             LLCPort

	// Tracer, when set, records every data-memory access for locality
	// analysis (internal/trace). Nil disables tracing at a nil-check's
	// cost.
	Tracer *trace.Collector

	// OnQuantum, when set, is invoked every quantum of executed µops —
	// the multi-core scheduler's preemption point.
	OnQuantum    func()
	quantumUops  uint64
	sinceQuantum uint64
	// streams holds the line addresses of concurrently-tracked prefetch
	// streams (hardware-prefetcher model).
	streams    [8]uint64
	streamNext int

	// profileOn enables per-function cycle attribution (profile.go), which
	// costs a float re-estimate per µop call and only feeds
	// AttributionProfile(). It changes no counter or metric, so it stays
	// off unless a caller that reads a profile sets it (EnableProfile).
	profileOn bool

	faulted *Fault
}

// NewMachine builds a machine for the given configuration.
func NewMachine(cfg Config) *Machine {
	l2tlb := tlb.New(cfg.L2TLB)
	m := &Machine{
		Cfg:  cfg,
		ABI:  cfg.ABI,
		Mem:  mem.New(),
		L1I:  cache.New(cfg.L1I),
		L1D:  cache.New(cfg.L1D),
		L2:   cache.New(cfg.L2),
		LLC:  cache.New(cfg.LLC),
		ITLB: tlb.NewHierarchy(cfg.L1ITLB, l2tlb),
		DTLB: tlb.NewHierarchy(cfg.L1DTLB, l2tlb),
		BP:   branch.New(),
		Heap: alloc.New(cfg.ABI, HeapBase, cfg.HeapSize),
		ddc:  cap.Root(),
		sp:   StackBase,
	}
	m.BP.TracksPCCBounds = cfg.TracksPCCBounds
	m.nextCode = TextBase
	m.fetchPC = TextBase
	if cfg.TemporalSafety {
		m.EnableTemporalSafety(cfg.RevokeThresholdBytes)
	}
	return m
}

// New builds a machine with the default Morello configuration for abi a.
func New(a abi.ABI) *Machine { return NewMachine(DefaultConfig(a)) }

// Func registers a simulated function occupying codeBytes of text (scaled
// by the ABI's code-size factor) with a frameBytes activation record.
func (m *Machine) Func(name string, codeBytes, frameBytes uint64) *Fn {
	sz := uint64(float64(codeBytes) * m.ABI.CodeSizeFactor())
	sz = (sz + 63) &^ 63
	f := &Fn{Name: name, Base: m.nextCode, Size: sz, Frame: frameBytes, machine: m}
	if m.ABI.PointersAreCapabilities() {
		c, err := cap.Root().SetBounds(f.Base, f.Size)
		if err == nil {
			c = c.ClearPerms(cap.PermsAll &^ cap.PermsCode)
			if s, err := c.SealEntry(); err == nil {
				f.Sentry = s
			}
		}
	}
	m.nextCode += sz
	m.fns = append(m.fns, f)
	if m.curFn == nil {
		m.curFn = f
		m.fetchPC = f.Base
		m.lastLine = ^uint64(0)
	}
	return f
}

// Funcs returns the registered function table (used by the loader model).
func (m *Machine) Funcs() []*Fn { return m.fns }

// TextBytes returns the total text-segment footprint.
func (m *Machine) TextBytes() uint64 { return m.nextCode - TextBase }

// saltShift positions the core-ID salt above every architectural address
// the simulated process can generate: TextBase, HeapBase and StackBase all
// sit below 2^47, so ORing the salt in is an injective rename of the
// address space — it never disturbs line-offset, set-index or low tag bits,
// and distinct cores can never collide. 64-47 = 17 salt bits support
// co-runs of up to MaxCores cores.
const saltShift = 47

// MaxCores is the largest co-run the address-space salting supports.
const MaxCores = 1 << (64 - saltShift)

// coreSalt returns the address-space salt for a co-running core, panicking
// on IDs outside the collision-free range. The former scheme
// (coreID << 56) wrapped to 0 at core 256, silently aliasing core 0's
// address space.
func coreSalt(coreID int) uint64 {
	if coreID < 0 || coreID >= MaxCores {
		panic(fmt.Sprintf("core: coreID %d outside the salting range [0, %d)", coreID, MaxCores))
	}
	return uint64(coreID) << saltShift
}

// LLCPort is an external last-level-cache fabric: internal/soc's
// topology-aware SoC routes the machine's post-L2 traffic through NoC
// links to address-interleaved LLC slices. Access receives the salted
// line-granular address and returns whether the slice (optimistically)
// held the line and the full latency of the access — NoC hops plus
// slice-hit or DRAM latency.
type LLCPort interface {
	Access(addr uint64, write bool) (hit bool, latency uint64)
}

// ShareLLCPort diverts the machine's post-L2 traffic through an external
// LLC fabric instead of the built-in m.LLC instance and installs the
// core's address-space salt, so co-running processes never alias in the
// shared slices. The machine still counts its own LLC reads and read
// misses, so PMU statistics stay per core.
func (m *Machine) ShareLLCPort(port LLCPort, coreID int) {
	m.llcPort = port
	m.llcSalt = coreSalt(coreID)
}

// AddExternalStall charges extra backend external-memory stall cycles to
// the machine — the SoC fabric's contention model bills queueing delay at
// epoch barriers through this. It must be called before the machine
// finalizes (the scheduler charges paused, unfinished cores only).
func (m *Machine) AddExternalStall(cycles float64) { m.beMemExt += cycles }

// SetQuantum arranges for fn to run every uops executed µops (the
// multi-core scheduler's preemption hook).
func (m *Machine) SetQuantum(uops uint64, fn func()) {
	if uops == 0 {
		uops = 10000
	}
	m.quantumUops = uops
	m.OnQuantum = fn
}

// Run executes the workload body, catching simulated capability faults,
// and finalizes cycle accounting into the PMU counters.
//
// Run never re-panics: a simulated capability fault surfaces as the *Fault
// error, a watchdog trip as *DeadlineError, and any other panic escaping
// the body is contained as a *PanicError (with the µop position) so one
// buggy kernel cannot abort a whole measurement campaign. In every case
// the counters are finalized over the executed prefix.
func (m *Machine) Run(body func(*Machine)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case *Fault:
				m.faulted = v
				err = v
			case *DeadlineError:
				err = v
			default:
				err = &PanicError{Value: v, Uops: m.classUops}
			}
		}
		m.finalize()
	}()
	body(m)
	return nil
}

// finalize folds the stall accumulators and component statistics into the
// ground-truth counter file. It is idempotent.
func (m *Machine) finalize() {
	if m.finalized {
		return
	}
	m.finalized = true

	// Component statistics → PMU events.
	m.C.Add(pmu.L1I_CACHE, m.L1I.Stats.Accesses)
	m.C.Add(pmu.L1I_CACHE_REFILL, m.L1I.Stats.Refills)
	m.C.Add(pmu.L1D_CACHE, m.L1D.Stats.Accesses)
	m.C.Add(pmu.L1D_CACHE_REFILL, m.L1D.Stats.Refills)
	m.C.Add(pmu.L2D_CACHE, m.L2.Stats.Accesses)
	m.C.Add(pmu.L2D_CACHE_REFILL, m.L2.Stats.Refills)
	m.C.Add(pmu.LL_CACHE_RD, m.llcRdAcc)
	m.C.Add(pmu.LL_CACHE_MISS_RD, m.llcRdMiss)
	m.C.Add(pmu.L1I_TLB, m.ITLB.L1.Stats.Accesses)
	m.C.Add(pmu.L1D_TLB, m.DTLB.L1.Stats.Accesses)
	m.C.Add(pmu.ITLB_WALK, m.ITLB.Walks)
	m.C.Add(pmu.DTLB_WALK, m.DTLB.Walks)
	m.C.Add(pmu.BR_RETIRED, m.BP.Stats.Branches)
	m.C.Add(pmu.BR_MIS_PRED_RETIRED, m.BP.Stats.Mispredicts)

	// Instruction accounting. Classified µops were accumulated live into
	// the *_SPEC counters; INST_SPEC additionally includes unclassified
	// auxiliary instructions.
	inst := m.insts()
	m.C.Add(pmu.INST_SPEC, inst)
	m.C.Add(pmu.INST_RETIRED, inst)

	m.cycleCounters(&m.C, m.pccStall)
}

// insts is the retired instruction count: classified µops plus the
// unclassified auxiliary instructions.
func (m *Machine) insts() uint64 { return m.classUops + uint64(m.auxUops) }

// cycleCounters sets c's cycle-accounting counters from the stall
// accumulators, with pcc as the PCC-bounds stall term: the issue-limited
// base plus attributed stalls. finalize passes m.pccStall; PCCFreeCounters
// passes 0.
func (m *Machine) cycleCounters(c *pmu.Counters, pcc float64) {
	base := float64(m.insts()) / float64(m.Cfg.Width)
	fe := m.feStall + pcc
	beMem := m.beMemL1 + m.beMemL2 + m.beMemExt
	be := beMem + m.beCore
	cycles := base + fe + be + m.badSpec
	c[pmu.CPU_CYCLES] = uint64(cycles)
	c[pmu.STALL_FRONTEND] = uint64(fe)
	c[pmu.STALL_BACKEND] = uint64(be)
	c[pmu.STALL_BACKEND_MEM] = uint64(beMem)
	c[pmu.STALL_BACKEND_MEM_L1D] = uint64(m.beMemL1)
	c[pmu.STALL_BACKEND_MEM_L2D] = uint64(m.beMemL2)
	c[pmu.STALL_BACKEND_MEM_EXT] = uint64(m.beMemExt)
	c[pmu.STALL_BACKEND_CORE] = uint64(m.beCore)
	c[pmu.BAD_SPEC_CYCLES] = uint64(m.badSpec)
	c[pmu.PCC_STALL_CYCLES] = uint64(pcc)
}

// PCCFreeCounters returns the finished machine's counter file as it would
// read without the PCC-bounds stall term. The purecap ABI differs from
// purecap-benchmark, and from purecap on a PCC-tracking predictor, only in
// that term: every µop, memory access and heap operation is the same. So
// a purecap machine's PCC-free counters are those runs' counters. Call it
// after Run.
func (m *Machine) PCCFreeCounters() pmu.Counters {
	c := m.C
	m.cycleCounters(&c, 0)
	return c
}

// Cycles returns total simulated cycles (valid after Run).
func (m *Machine) Cycles() uint64 { return m.C.Get(pmu.CPU_CYCLES) }

// Seconds returns the simulated wall-clock time at the Morello frequency.
func (m *Machine) Seconds() float64 { return float64(m.Cycles()) / ClockHz }

// IPC returns retired instructions per cycle.
func (m *Machine) IPC() float64 { return m.C.Ratio(pmu.INST_RETIRED, pmu.CPU_CYCLES) }

// Fault returns the capability fault that terminated the run, if any.
func (m *Machine) Fault() *Fault { return m.faulted }

// Uops returns the number of classified µops executed so far (the
// supervisor's notion of run progress, used by watchdog deadlines and
// panic positions).
func (m *Machine) Uops() uint64 { return m.classUops }

// PC returns the current fetch program counter.
func (m *Machine) PC() uint64 { return m.fetchPC }

// EnableProfile turns on per-function cycle attribution for this machine,
// the analogue of pmcstat's sampling mode: call it before Run, and only
// when AttributionProfile() will be read. Without it the profile has no
// functions; nothing else observable changes.
func (m *Machine) EnableProfile() { m.profileOn = true }

// DropOwnerCache invalidates the machine's cached owning-allocation range.
// The fault injector must call it after mutating heap-allocation metadata
// (bounds truncation) so the next spatial check consults the heap afresh.
func (m *Machine) DropOwnerCache() { m.ownBase, m.ownSize = 0, 0 }

func (m *Machine) fault(op string, addr uint64, cause error) {
	panic(&Fault{Kind: classifyFault(op, cause), PC: m.fetchPC, Addr: addr, Cause: cause, Op: op})
}
