package soc

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"

	"cherisim/internal/cache"
	"cherisim/internal/core"
)

// The fabric is the runtime form of a Topology: per-core ports buffer LLC
// traffic during the bound phase (cores running one quantum concurrently),
// and the weave phase at each epoch barrier merges the buffered events
// into the address-interleaved slice caches in a fixed cross-core order —
// (sequence, core) ascending — so the evolved slice state, every counter
// and every charged contention cycle is byte-identical for any GOMAXPROCS.
//
// Latency model: during the bound phase a port prices an access
// optimistically against the slice state frozen at the last barrier plus
// the core's own accesses this epoch (a core always sees its own fills).
// Cross-core fills land at the barrier and become visible next epoch.
// Contention is epoch-granular: traffic beyond a slice's or link's
// per-epoch capacity is charged back to the cores that drove it,
// proportionally, as backend external-memory stall.

// portEvent is one buffered slice access: the slice-local salted address,
// the core-program-order sequence number within the epoch, and the bound
// phase's optimistic outcome.
type portEvent struct {
	addr  uint64
	seq   uint32
	write bool
	hit   bool
}

// CoreFabricStats is one core's cumulative view of the fabric: its slice
// traffic, the NoC hops that traffic crossed, and the contention stall
// charged back to it. Reads/ReadMisses reconcile exactly with the core's
// LL_CACHE_RD / LL_CACHE_MISS_RD PMU counters — both sides count the same
// events.
type CoreFabricStats struct {
	Accesses    uint64  `json:"accesses"`
	Reads       uint64  `json:"reads"`
	ReadMisses  uint64  `json:"read_misses"`
	Writes      uint64  `json:"writes"`
	Hops        uint64  `json:"hops"`
	StallCycles float64 `json:"stall_cycles"`
}

// SliceStats is one LLC slice's cumulative counters. Accesses/Reads/Writes
// tally the merged event stream (so their fabric-wide totals reconcile
// exactly with the per-core stats); ReadMisses is the bound phase's
// optimistic outcome (what the cores were charged), while Refills is the
// woven slice cache's ground truth after cross-core merging.
type SliceStats struct {
	Slice            int    `json:"slice"`
	Node             int    `json:"node"`
	Accesses         uint64 `json:"accesses"`
	Reads            uint64 `json:"reads"`
	ReadMisses       uint64 `json:"read_misses"`
	Writes           uint64 `json:"writes"`
	Refills          uint64 `json:"refills"`
	WriteBacks       uint64 `json:"write_backs"`
	ContentionCycles uint64 `json:"contention_cycles"`
}

// LinkStats is one directed NoC link's cumulative counters.
type LinkStats struct {
	From             int    `json:"from"`
	To               int    `json:"to"`
	Traversals       uint64 `json:"traversals"`
	ContentionCycles uint64 `json:"contention_cycles"`
}

// FabricStats is the fabric's complete post-run accounting, persisted with
// co-run units in the result store and rendered by the scale experiment.
type FabricStats struct {
	Topology Topology          `json:"topology"`
	Epochs   uint64            `json:"epochs"`
	Slices   []SliceStats      `json:"slices"`
	Links    []LinkStats       `json:"links"`
	Cores    []CoreFabricStats `json:"cores"`
}

// Totals sums the reconcilable counters on both sides of the fabric.
func (f *FabricStats) Totals() (sliceAcc, coreAcc, linkTrav, coreHops uint64) {
	for i := range f.Slices {
		sliceAcc += f.Slices[i].Accesses
	}
	for i := range f.Cores {
		coreAcc += f.Cores[i].Accesses
		coreHops += f.Cores[i].Hops
	}
	for i := range f.Links {
		linkTrav += f.Links[i].Traversals
	}
	return
}

// Reconcile verifies the fabric's conservation laws: every slice access
// was driven by exactly one core, and every link traversal was one hop of
// exactly one access. A non-nil error means the fabric lost or invented
// traffic.
func (f *FabricStats) Reconcile() error {
	sliceAcc, coreAcc, linkTrav, coreHops := f.Totals()
	if sliceAcc != coreAcc {
		return fmt.Errorf("soc: fabric accounting: %d slice accesses vs %d core accesses", sliceAcc, coreAcc)
	}
	if linkTrav != coreHops {
		return fmt.Errorf("soc: fabric accounting: %d link traversals vs %d core hops", linkTrav, coreHops)
	}
	var sliceReads, coreReads, sliceMiss, coreMiss uint64
	for i := range f.Slices {
		sliceReads += f.Slices[i].Reads
		sliceMiss += f.Slices[i].ReadMisses
	}
	for i := range f.Cores {
		coreReads += f.Cores[i].Reads
		coreMiss += f.Cores[i].ReadMisses
	}
	if sliceReads != coreReads || sliceMiss != coreMiss {
		return fmt.Errorf("soc: fabric accounting: slice reads/misses %d/%d vs core reads/misses %d/%d",
			sliceReads, sliceMiss, coreReads, coreMiss)
	}
	return nil
}

// llcSlice is one address-interleaved directory slice: a cache.Cache plus
// tallies of the merged event stream. The mutex serializes weave-phase
// mutation (slices are merged in parallel, one worker per slice at a time).
type llcSlice struct {
	mu    sync.Mutex
	cache *cache.Cache
	node  int

	accesses   uint64
	reads      uint64
	readMisses uint64
	writes     uint64
	contention uint64
}

// Port is one core's window onto the fabric; it implements core.LLCPort.
// All mutable state is core-private during the bound phase — the only
// shared touches are read-only probes of slice caches frozen between
// barriers — so concurrently running cores never race.
type Port struct {
	f    *fabric
	core int

	hitLat  uint64 // slice hit latency
	dramLat uint64 // this core's DRAM latency on slice miss

	seq       uint32
	evBySlice [][]portEvent
	overlay   map[uint64]struct{} // full line addresses this core touched this epoch
	sliceCnt  []uint32            // per-slice event count this epoch
	touched   []int32             // slices with sliceCnt > 0, first-touch order

	stats CoreFabricStats
}

var _ core.LLCPort = (*Port)(nil)

// Access prices one salted post-L2 access: NoC hops to the home slice plus
// slice-hit or DRAM latency, and buffers the event for the barrier merge.
func (p *Port) Access(addr uint64, write bool) (bool, uint64) {
	f := p.f
	line := addr >> f.lineShift
	s := int(line & f.sliceMask)
	// Slice-local address: drop the interleave bits so consecutive lines
	// spread across slices while still filling every set within a slice.
	local := (line >> f.sliceBits) << f.lineShift

	hops := uint64(len(f.geo.routes[p.core*f.topo.Slices+s]))
	lat := hops * f.topo.HopLatency
	p.stats.Accesses++
	p.stats.Hops += hops

	// The overlay is keyed by the full line address — the slice-local
	// form drops the interleave bits, which would alias consecutive lines
	// of different slices onto one key.
	_, hit := p.overlay[line]
	if !hit {
		hit = f.slices[s].cache.Probe(local)
	}
	if hit {
		lat += p.hitLat
	} else {
		lat += p.dramLat
	}
	if write {
		p.stats.Writes++
	} else {
		p.stats.Reads++
		if !hit {
			p.stats.ReadMisses++
		}
	}

	p.overlay[line] = struct{}{}
	if p.sliceCnt[s] == 0 {
		p.touched = append(p.touched, int32(s))
	}
	p.sliceCnt[s]++
	p.evBySlice[s] = append(p.evBySlice[s], portEvent{addr: local, seq: p.seq, write: write, hit: hit})
	p.seq++
	return hit, lat
}

// resetEpoch clears the port's per-epoch buffers after a weave.
func (p *Port) resetEpoch() {
	for _, s := range p.touched {
		p.sliceCnt[s] = 0
		p.evBySlice[s] = p.evBySlice[s][:0]
	}
	p.touched = p.touched[:0]
	clear(p.overlay)
	p.seq = 0
}

// fabric is the live topology: slices, ports, compiled routes and the
// cumulative + per-epoch accounting state.
type fabric struct {
	topo Topology
	geo  *geometry

	lineShift uint
	sliceBits uint
	sliceMask uint64

	slices  []*llcSlice
	ports   []*Port
	epochs  uint64
	workers int // weave goroutines, at most one per slice

	// Per-epoch scratch (touched-list reset) and cumulative link counters,
	// indexed like geo.links.
	sliceTotals    []uint64
	linkTotals     []uint64
	linkTouched    []int32
	linkTraversals []uint64
	linkContention []uint64
}

// newFabric compiles the topology and builds slices and ports. sliceCfg
// is the per-slice cache geometry (see Topology.SliceCacheConfig); workers
// bounds the goroutines that weave the slices at a barrier.
func newFabric(topo Topology, sliceCfg cache.Config, specs []CoreSpec, workers int) *fabric {
	geo := compile(topo)
	f := &fabric{
		topo:           topo,
		geo:            geo,
		lineShift:      log2u(uint64(sliceCfg.LineSize)),
		sliceBits:      log2u(uint64(topo.Slices)),
		sliceMask:      uint64(topo.Slices - 1),
		slices:         make([]*llcSlice, topo.Slices),
		ports:          make([]*Port, topo.Cores),
		workers:        min(workers, topo.Slices),
		sliceTotals:    make([]uint64, topo.Slices),
		linkTotals:     make([]uint64, len(geo.links)),
		linkTraversals: make([]uint64, len(geo.links)),
		linkContention: make([]uint64, len(geo.links)),
	}
	for s := range f.slices {
		f.slices[s] = &llcSlice{cache: cache.New(sliceCfg), node: geo.sliceNode[s]}
	}
	for c := range f.ports {
		f.ports[c] = &Port{
			f:         f,
			core:      c,
			hitLat:    sliceCfg.HitLatency,
			dramLat:   specs[c].Config.DRAMLatency,
			evBySlice: make([][]portEvent, topo.Slices),
			overlay:   make(map[uint64]struct{}),
			sliceCnt:  make([]uint32, topo.Slices),
		}
	}
	return f
}

// log2u returns the base-2 logarithm of a power of two.
func log2u(v uint64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// mergeCursor / mergeHeap implement the k-way (seq, core)-ordered merge of
// per-core event lists into one slice.
type mergeCursor struct {
	core int
	evs  []portEvent
	pos  int
}

type mergeHeap []*mergeCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].evs[h[i].pos], h[j].evs[h[j].pos]
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return h[i].core < h[j].core
}
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(*mergeCursor)) }
func (h *mergeHeap) Pop() (out any)    { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
func (h mergeHeap) peek() *mergeCursor { return h[0] }

// mergeSlice replays one slice's buffered events into its cache in the
// fixed (seq, core) order and tallies the slice counters.
func (f *fabric) mergeSlice(s int) {
	sl := f.slices[s]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	var h mergeHeap
	for _, p := range f.ports {
		if evs := p.evBySlice[s]; len(evs) > 0 {
			h = append(h, &mergeCursor{core: p.core, evs: evs})
		}
	}
	if len(h) == 0 {
		return
	}
	heap.Init(&h)
	for h.Len() > 0 {
		c := h.peek()
		ev := c.evs[c.pos]
		sl.cache.Access(ev.addr, ev.write)
		sl.accesses++
		if ev.write {
			sl.writes++
		} else {
			sl.reads++
			if !ev.hit {
				sl.readMisses++
			}
		}
		c.pos++
		if c.pos == len(c.evs) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
}

// weave runs the barrier phase: parallel per-slice merges (the expensive
// cache replays), then sequential deterministic contention accounting.
// charge bills contention stall cycles back to a core; the scheduler
// filters out cores that already finalized.
func (f *fabric) weave(charge func(core int, cycles float64)) {
	f.epochs++

	// Parallel slice merges: slices are independent, so any worker count
	// yields the same state.
	if f.workers <= 1 {
		for s := range f.slices {
			f.mergeSlice(s)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < f.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					s := int(next.Add(1)) - 1
					if s >= len(f.slices) {
						return
					}
					f.mergeSlice(s)
				}
			}()
		}
		wg.Wait()
	}

	// Slice contention: traffic beyond the per-epoch capacity queues;
	// overflow cycles are charged to the contending cores proportionally,
	// in (slice, core) order so float accumulation is deterministic.
	for s := range f.sliceTotals {
		f.sliceTotals[s] = 0
	}
	for _, p := range f.ports {
		for _, s := range p.touched {
			f.sliceTotals[s] += uint64(p.sliceCnt[s])
		}
	}
	pen := f.topo.QueuePenalty
	sliceCap := uint64(f.topo.SliceCapacity)
	for s, total := range f.sliceTotals {
		if total <= sliceCap {
			continue
		}
		penalty := (total - sliceCap) * pen
		f.slices[s].contention += penalty
		for ci, p := range f.ports {
			if cnt := p.sliceCnt[s]; cnt > 0 {
				charge(ci, float64(penalty)*float64(cnt)/float64(total))
			}
		}
	}

	// Link traffic and contention, same scheme per directed link.
	for _, l := range f.linkTouched {
		f.linkTotals[l] = 0
	}
	f.linkTouched = f.linkTouched[:0]
	for ci, p := range f.ports {
		for _, s := range p.touched {
			cnt := uint64(p.sliceCnt[s])
			for _, l := range f.geo.routes[ci*f.topo.Slices+int(s)] {
				if f.linkTotals[l] == 0 {
					f.linkTouched = append(f.linkTouched, l)
				}
				f.linkTotals[l] += cnt
				f.linkTraversals[l] += cnt
			}
		}
	}
	linkCap := uint64(f.topo.LinkCapacity)
	for _, l := range f.linkTouched {
		if total := f.linkTotals[l]; total > linkCap {
			f.linkContention[l] += (total - linkCap) * pen
		}
	}
	for ci, p := range f.ports {
		for _, s := range p.touched {
			cnt := uint64(p.sliceCnt[s])
			for _, l := range f.geo.routes[ci*f.topo.Slices+int(s)] {
				if total := f.linkTotals[l]; total > linkCap {
					charge(ci, float64((total-linkCap)*pen)*float64(cnt)/float64(total))
				}
			}
		}
	}

	for _, p := range f.ports {
		p.resetEpoch()
	}
}

// stats snapshots the fabric's cumulative accounting.
func (f *fabric) stats() *FabricStats {
	out := &FabricStats{
		Topology: f.topo,
		Epochs:   f.epochs,
		Slices:   make([]SliceStats, len(f.slices)),
		Links:    make([]LinkStats, len(f.geo.links)),
		Cores:    make([]CoreFabricStats, len(f.ports)),
	}
	for s, sl := range f.slices {
		out.Slices[s] = SliceStats{
			Slice:            s,
			Node:             sl.node,
			Accesses:         sl.accesses,
			Reads:            sl.reads,
			ReadMisses:       sl.readMisses,
			Writes:           sl.writes,
			Refills:          sl.cache.Stats.Refills,
			WriteBacks:       sl.cache.Stats.WriteBacks,
			ContentionCycles: sl.contention,
		}
	}
	for l, e := range f.geo.links {
		out.Links[l] = LinkStats{
			From:             e.From,
			To:               e.To,
			Traversals:       f.linkTraversals[l],
			ContentionCycles: f.linkContention[l],
		}
	}
	for c, p := range f.ports {
		out.Cores[c] = p.stats
	}
	return out
}
