package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cherisim/internal/pmu"
)

// Per-function cycle attribution: the simulator's analogue of pmcstat's
// sampling mode (the paper used pmcstat on CheriBSD and found a sampling
// bug in it, issue CTSRD-CHERI/cheribsd#2391). Every µop's incremental
// cycle cost — including the stalls it caused — is attributed to the
// function that was executing, split by top-down category, and the PMU
// events the paper's Table 1 derives its metrics from are attributed the
// same way. Unlike a sampling profiler the attribution is exact: summed
// per-function categories reconcile with the whole-run counter file (see
// AttributionProfile and internal/profile.Reconcile). Like pmcstat's
// sampling mode it is a separate collection from counting: a machine
// attributes only after EnableProfile.

// AttrCategory indexes one top-down cycle-estimate category. The split
// mirrors finalize()'s grouping of the stall accumulators, at one level
// finer than the paper's Figure 3 (frontend is divided into fetch and
// PCC-bounds stalls, backend memory into L1/L2/external).
type AttrCategory int

// Attribution categories.
const (
	AttrRetiring    AttrCategory = iota // issue-limited base: µops / pipeline width
	AttrFrontend                        // fetch stalls (L1I / ITLB), excluding PCC
	AttrPCC                             // PCC-bounds stalls (capability jumps, resteers)
	AttrBadSpec                         // mispredict flush cycles
	AttrL1Bound                         // backend memory-bound, served from L1D
	AttrL2Bound                         // backend memory-bound, served from L2
	AttrExtMemBound                     // backend memory-bound, LLC/DRAM + TLB walks
	AttrCoreBound                       // backend core-bound (execution pressure)

	NumAttrCategories
)

var attrCategoryNames = [NumAttrCategories]string{
	"retiring", "frontend", "pcc_bounds", "bad_spec",
	"be_mem_l1", "be_mem_l2", "be_mem_ext", "be_core",
}

// String returns the category's stable snake_case name (used in JSON,
// folded flamegraph stacks and report columns).
func (c AttrCategory) String() string {
	if c < 0 || c >= NumAttrCategories {
		return fmt.Sprintf("cat_%d", int(c))
	}
	return attrCategoryNames[c]
}

// AttrEvent indexes one per-function attributed PMU event delta.
type AttrEvent int

// Attributed events: the cache/TLB/branch/capability activity the paper's
// Table 1 metrics are built from, charged to the issuing function.
const (
	EvL1DRefill AttrEvent = iota
	EvL2DRefill
	EvLLCMissRd
	EvL1IRefill
	EvDTLBWalk
	EvITLBWalk
	EvBrMispredict
	EvCapMemRd
	EvCapMemWr

	NumAttrEvents
)

var attrEventNames = [NumAttrEvents]string{
	"l1d_refill", "l2d_refill", "llc_miss_rd", "l1i_refill",
	"dtlb_walk", "itlb_walk", "br_mispredict", "cap_mem_rd", "cap_mem_wr",
}

// String returns the event's stable snake_case name.
func (e AttrEvent) String() string {
	if e < 0 || e >= NumAttrEvents {
		return fmt.Sprintf("ev_%d", int(e))
	}
	return attrEventNames[e]
}

// AttrLayoutVersion names the attribution schema (category/event sets and
// their order). The result store folds it into profile cache keys so
// entries written under an older layout are never decoded into a newer
// one.
const AttrLayoutVersion = "attr/v1"

// attribute charges the per-category cycle-estimate deltas and the
// per-event count deltas since the previous µop to the current function.
// Called from uop(), so stall costs accrued by an operation land on the
// function that issued it (off by at most one µop — an operation's stalls
// accrue after its uop() call and are picked up by the next one; the
// remainder after the final µop surfaces as the profile's residual entry).
func (m *Machine) attribute(n uint64) {
	f := m.curFn
	// Retiring changes on every µop. It is tracked in raw µop units —
	// divided by the pipeline width once, at snapshot time — so the common
	// all-hit path costs no division.
	ret := float64(m.classUops) + m.auxUops
	if f != nil {
		f.cat[AttrRetiring] += ret - m.lastRet
		f.uops += n
	}
	m.lastRet = ret

	// Stalls and events change rarely (only on misses, walks, mispredicts
	// and capability traffic): one array compare skips the delta loops on
	// the common path. The retiring slot of both arrays stays zero.
	stall := [NumAttrCategories]float64{
		AttrFrontend:    m.feStall,
		AttrPCC:         m.pccStall,
		AttrBadSpec:     m.badSpec,
		AttrL1Bound:     m.beMemL1,
		AttrL2Bound:     m.beMemL2,
		AttrExtMemBound: m.beMemExt,
		AttrCoreBound:   m.beCore,
	}
	if stall != m.lastCat {
		for i := AttrFrontend; i < NumAttrCategories; i++ {
			if d := stall[i] - m.lastCat[i]; d != 0 && f != nil {
				f.cat[i] += d
			}
		}
		m.lastCat = stall
	}
	ev := [NumAttrEvents]uint64{
		EvL1DRefill:    m.L1D.Stats.Refills,
		EvL2DRefill:    m.L2.Stats.Refills,
		EvLLCMissRd:    m.llcRdMiss,
		EvL1IRefill:    m.L1I.Stats.Refills,
		EvDTLBWalk:     m.DTLB.Walks,
		EvITLBWalk:     m.ITLB.Walks,
		EvBrMispredict: m.BP.Stats.Mispredicts,
		EvCapMemRd:     m.C.Get(pmu.CAP_MEM_ACCESS_RD),
		EvCapMemWr:     m.C.Get(pmu.CAP_MEM_ACCESS_WR),
	}
	if ev != m.lastEv {
		for i := range ev {
			if d := ev[i] - m.lastEv[i]; d != 0 && f != nil {
				f.ev[i] += d
			}
		}
		m.lastEv = ev
	}
}

// fnCycles is a function's attributed cycle total: the retiring charge
// (stored in µop units) converted by the pipeline width, plus the stall
// categories.
func (m *Machine) fnCycles(f *Fn) float64 {
	c := f.cat[AttrRetiring] / float64(m.Cfg.Width)
	for i := AttrFrontend; i < NumAttrCategories; i++ {
		c += f.cat[i]
	}
	return c
}

// FnProfile is one function's share of the run.
type FnProfile struct {
	Name   string
	Cycles float64
	Uops   uint64
	// Share is Cycles as a fraction of the profiled total.
	Share float64
	// Samples is the pmcstat-style sample count at the given period.
	Samples uint64
}

// Profile returns the per-function cycle attribution, sorted by cycles
// descending. period is the sampling interval in cycles used to derive the
// pmcstat-style sample counts (e.g. 65536); the shares themselves are
// exact. It is empty unless EnableProfile was called before Run.
func (m *Machine) Profile(period uint64) []FnProfile {
	if period == 0 {
		period = 65536
	}
	var total float64
	for _, f := range m.fns {
		total += m.fnCycles(f)
	}
	out := make([]FnProfile, 0, len(m.fns))
	for _, f := range m.fns {
		if f.uops == 0 {
			continue
		}
		cycles := m.fnCycles(f)
		p := FnProfile{Name: f.Name, Cycles: cycles, Uops: f.uops}
		if total > 0 {
			p.Share = cycles / total
		}
		p.Samples = uint64(cycles / float64(period))
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	return out
}

// FormatProfile renders the top-n profile entries as a pmcstat-style
// report. Entries past the top n are aggregated into a trailing «other»
// row so the printed shares still account for the whole run.
func FormatProfile(prof []FnProfile, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s  %6s  %12s  %s\n", "SAMPLES", "%", "UOPS", "FUNCTION")
	for i, p := range prof {
		if n >= 0 && i >= n {
			break
		}
		fmt.Fprintf(&b, "%8d  %5.1f%%  %12d  %s\n", p.Samples, p.Share*100, p.Uops, p.Name)
	}
	if n >= 0 && len(prof) > n {
		var rest FnProfile
		for _, p := range prof[n:] {
			rest.Samples += p.Samples
			rest.Share += p.Share
			rest.Uops += p.Uops
		}
		fmt.Fprintf(&b, "%8d  %5.1f%%  %12d  «other» (%d functions)\n",
			rest.Samples, rest.Share*100, rest.Uops, len(prof)-n)
	}
	return b.String()
}

// ResidualName labels the attribution profile's remainder entry: the tail
// accrued after each run's final µop (plus float-grouping differences
// against finalize()'s truncated counters), kept explicit so conservation
// is exact rather than approximate.
const ResidualName = "«unattributed»"

// FnAttribution is one function's exact top-down and PMU-event
// attribution. Categories is indexed by AttrCategory, Events by AttrEvent;
// Cycles is the sum over Categories.
type FnAttribution struct {
	Name       string                     `json:"name"`
	Uops       uint64                     `json:"uops"`
	Cycles     float64                    `json:"cycles"`
	Categories [NumAttrCategories]float64 `json:"categories"`
	Events     [NumAttrEvents]uint64      `json:"events"`
}

// AttributionProfile is a machine's complete per-function attribution.
// Invariant (checked by internal/profile.Reconcile and the conservation
// tests): for every category and event, summing Functions in slice order
// and then adding Residual reproduces Totals bit-exactly, and Totals
// reconstruct the machine's stall/cycle counter file exactly — so the
// per-function split carries precisely the information topdown.Analyze
// sees, at function granularity.
type AttributionProfile struct {
	// Totals are the whole-run category values in finalize()'s exact float
	// grouping (retiring = INST_SPEC/width) and the whole-run event counts.
	Totals      [NumAttrCategories]float64 `json:"totals"`
	TotalEvents [NumAttrEvents]uint64      `json:"total_events"`
	// Functions hold the per-function attribution, sorted by cycles
	// descending (name-ascending tiebreak for determinism).
	Functions []FnAttribution `json:"functions"`
	// Residual is the unattributed remainder (see ResidualName).
	Residual FnAttribution `json:"residual"`
}

// AttributionProfile snapshots the machine's per-function attribution.
// Call it after Run; the profile is empty unless EnableProfile was called.
func (m *Machine) AttributionProfile() AttributionProfile {
	var p AttributionProfile
	p.Totals = [NumAttrCategories]float64{
		AttrRetiring:    float64(m.classUops+uint64(m.auxUops)) / float64(m.Cfg.Width),
		AttrFrontend:    m.feStall,
		AttrPCC:         m.pccStall,
		AttrBadSpec:     m.badSpec,
		AttrL1Bound:     m.beMemL1,
		AttrL2Bound:     m.beMemL2,
		AttrExtMemBound: m.beMemExt,
		AttrCoreBound:   m.beCore,
	}
	p.TotalEvents = [NumAttrEvents]uint64{
		EvL1DRefill:    m.L1D.Stats.Refills,
		EvL2DRefill:    m.L2.Stats.Refills,
		EvLLCMissRd:    m.llcRdMiss,
		EvL1IRefill:    m.L1I.Stats.Refills,
		EvDTLBWalk:     m.DTLB.Walks,
		EvITLBWalk:     m.ITLB.Walks,
		EvBrMispredict: m.BP.Stats.Mispredicts,
		EvCapMemRd:     m.C.Get(pmu.CAP_MEM_ACCESS_RD),
		EvCapMemWr:     m.C.Get(pmu.CAP_MEM_ACCESS_WR),
	}
	if !m.profileOn {
		return p
	}
	for _, f := range m.fns {
		if f.uops == 0 {
			continue
		}
		fa := FnAttribution{Name: f.Name, Uops: f.uops, Categories: f.cat, Events: f.ev}
		// The retiring charge is tracked in raw µop units; convert it here.
		fa.Categories[AttrRetiring] = f.cat[AttrRetiring] / float64(m.Cfg.Width)
		for _, c := range fa.Categories {
			fa.Cycles += c
		}
		p.Functions = append(p.Functions, fa)
	}
	sort.Slice(p.Functions, func(i, j int) bool {
		a, b := &p.Functions[i], &p.Functions[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return a.Name < b.Name
	})

	// The residual closes the books: summing Functions in slice order and
	// adding Residual must land on Totals bit-exactly. Plain subtraction is
	// already exact in the realistic regime (Sterbenz: the attributed sum is
	// within 2× of the total); the nextafter fixup covers the rest.
	p.Residual.Name = ResidualName
	for i := range p.Totals {
		var sum float64
		for _, f := range p.Functions {
			sum += f.Categories[i]
		}
		r := exactRemainder(p.Totals[i], sum)
		p.Residual.Categories[i] = r
		p.Residual.Cycles += r
	}
	for i := range p.TotalEvents {
		var sum uint64
		for _, f := range p.Functions {
			sum += f.Events[i]
		}
		p.Residual.Events[i] = p.TotalEvents[i] - sum
	}
	return p
}

// exactRemainder returns r such that sum + r == total exactly in float64
// (when such an r exists; it always does when sum and total are within a
// factor of two, which holds for any profile where functions own the bulk
// of the run).
func exactRemainder(total, sum float64) float64 {
	r := total - sum
	for i := 0; i < 4 && sum+r > total; i++ {
		r = math.Nextafter(r, math.Inf(-1))
	}
	for i := 0; i < 4 && sum+r < total; i++ {
		r = math.Nextafter(r, math.Inf(1))
	}
	return r
}
