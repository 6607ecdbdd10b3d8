// Package alloc implements the simulated user-space heap allocator. It
// reproduces the allocation behaviour that makes purecap memory footprints
// grow on Morello: under the purecap ABIs every allocation must be
// precisely describable by a CHERI Concentrate capability, so sizes are
// rounded up to representable lengths and bases aligned to the
// representability mask (CRRL/CRAM, as CheriBSD's jemalloc does); pointers
// stored inside allocations double from 8 to 16 bytes (that part is the
// record-layout model in internal/core).
//
// The allocator is a size-class segregated free-list over a bump region,
// deterministic and O(1), with live-allocation tracking used by the
// simulator to derive correctly-bounded capabilities for stored pointers
// and to detect use-after-free in the temporal-safety experiments. The live
// set is one sorted interval table searched by binary search; Owner, the
// lookup behind every heap capability dereference, never hashes.
package alloc

import (
	"fmt"
	"sort"

	"cherisim/internal/abi"
	"cherisim/internal/cap"
)

// headerSize is the per-allocation bookkeeping overhead (same under all
// ABIs, as jemalloc's is).
const headerSize = 0

// minAlign is the minimum allocation alignment. CheriBSD's allocator keeps
// 16-byte alignment in all ABIs so capabilities stored at offset 0 work.
const minAlign = 16

// Range is a half-open address interval [Base, Base+Size).
type Range struct {
	Base, Size uint64
}

// Shadow observes every operation on the heap's live set after it
// completes. internal/check installs a lockstep reference model behind it;
// a nil shadow costs one pointer test per operation and nothing else.
// Shadows must not call back into the heap beyond LiveCount and Stats.
type Shadow interface {
	// Commit reports a block made live at base with the given usable size
	// (a hybrid free-list alias re-commits a block that is already live).
	Commit(base, size uint64)
	// Free reports a completed Free of addr and whether addr was a live
	// allocation base (a tolerated hybrid double free and an invalid free
	// leave the live set alone).
	Free(addr uint64, live bool)
	// Truncate reports a completed Truncate and whether it applied.
	Truncate(base, size uint64, applied bool)
	// Owner reports one completed lookup (memo fast path included).
	Owner(addr, base, size uint64, ok bool)
}

// Heap is a simulated heap over [base, limit).
type Heap struct {
	abi   abi.ABI
	base  uint64
	limit uint64
	brk   uint64

	// Quarantine, when set, defers freed blocks instead of reusing them
	// until a revocation sweep drains them (heap temporal safety in the
	// style of Cornucopia: freed memory cannot be reallocated while
	// capabilities to it may still be live).
	Quarantine      bool
	quarantined     []Range
	quarantineBytes uint64

	// free lists keyed by rounded size class.
	free map[uint64][]uint64
	// bases and sizes are the live set as one interval table: the live
	// allocation bases in ascending order and, at the same position, each
	// one's usable (rounded, possibly truncated) size. Every lookup is a
	// binary search over bases (find).
	bases, sizes []uint64
	// ownBase/ownSize memoise the last positive Owner result. Live ranges
	// are disjoint and an allocation cannot appear inside another live one,
	// so the memo stays valid until a Free, a Truncate or an alias
	// re-commit changes a live range (all three clear it); repeated lookups inside one allocation — the dominant
	// pattern on the capability-derivation hot path — cost two compares.
	ownBase, ownSize uint64
	shadow           Shadow

	// Statistics.
	allocs        uint64
	frees         uint64
	liveBytes     uint64
	peakLiveBytes uint64
	requested     uint64 // sum of requested sizes
	rounded       uint64 // sum of sizes after representability rounding
}

// New creates a heap for the given ABI spanning [base, base+size).
func New(a abi.ABI, base, size uint64) *Heap {
	return &Heap{
		abi:   a,
		base:  base,
		limit: base + size,
		brk:   base,
		free:  make(map[uint64][]uint64),
	}
}

// find returns the position of the last live base at or below addr, or -1
// when every live base lies above it. A hand-written search: sort.Search's
// closure call per probe costs more than the comparison it makes.
func (h *Heap) find(addr uint64) int {
	lo, hi := 0, len(h.bases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bases[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// indexOf returns the position of the live allocation based exactly at
// addr, or -1.
func (h *Heap) indexOf(addr uint64) int {
	if i := h.find(addr); i >= 0 && h.bases[i] == addr {
		return i
	}
	return -1
}

// roundSize converts a requested size into the allocated size class:
// minimum-aligned always, and representability-rounded under purecap ABIs.
func (h *Heap) roundSize(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	size = (size + minAlign - 1) &^ (minAlign - 1)
	if h.abi.PointersAreCapabilities() {
		size = cap.RepresentableLength(size)
	}
	return size
}

// alignFor returns the base alignment required for an allocation of the
// given (rounded) size.
func (h *Heap) alignFor(size uint64) uint64 {
	align := uint64(minAlign)
	if h.abi.PointersAreCapabilities() {
		mask := cap.RepresentableAlignmentMask(size)
		if a := ^mask + 1; a > align {
			align = a
		}
	}
	return align
}

// Alloc returns the address of a fresh allocation of at least size bytes.
func (h *Heap) Alloc(size uint64) (uint64, error) {
	rsize := h.roundSize(size)
	if fl := h.free[rsize]; len(fl) > 0 {
		addr := fl[len(fl)-1]
		h.free[rsize] = fl[:len(fl)-1]
		h.commit(addr, size, rsize)
		return addr, nil
	}
	align := h.alignFor(rsize)
	addr := (h.brk + headerSize + align - 1) &^ (align - 1)
	if addr < h.brk || addr > h.limit || rsize > h.limit-addr { // overflow-safe addr+rsize > limit
		return 0, fmt.Errorf("alloc: out of simulated heap (%d bytes requested, brk %#x, limit %#x)", size, h.brk, h.limit)
	}
	h.brk = addr + rsize
	h.commit(addr, size, rsize)
	return addr, nil
}

func (h *Heap) commit(addr, size, rsize uint64) {
	// A hybrid double free can leave the same address on a free list
	// twice; the second pop then re-commits a block that is already live
	// (the aliasing the fastbin-dup attack exploits). Keep the index and
	// byte accounting single-entry in that case.
	if i := h.find(addr); i >= 0 && h.bases[i] == addr {
		h.sizes[i] = rsize
		h.ownBase, h.ownSize = 0, 0 // the memo may hold the old size
	} else {
		i++
		h.bases = append(h.bases, 0)
		copy(h.bases[i+1:], h.bases[i:])
		h.bases[i] = addr
		h.sizes = append(h.sizes, 0)
		copy(h.sizes[i+1:], h.sizes[i:])
		h.sizes[i] = rsize
		h.liveBytes += rsize
		if h.liveBytes > h.peakLiveBytes {
			h.peakLiveBytes = h.liveBytes
		}
	}
	if h.shadow != nil {
		h.shadow.Commit(addr, rsize)
	}
	h.allocs++
	h.requested += size
	h.rounded += rsize
}

// Free releases the allocation at addr. Freeing an unknown address is an
// error (the double-free / invalid-free of the temporal-safety model)
// under the capability ABIs, where CheriBSD's allocator revokes and
// detects it; under hybrid the second free of a block already sitting on a
// free list is silently tolerated, duplicating the free-list entry exactly
// like glibc's classic fastbin-dup — two later allocations of the size
// class then alias the same memory.
func (h *Heap) Free(addr uint64) error {
	i := h.indexOf(addr)
	if h.shadow != nil {
		defer h.shadow.Free(addr, i >= 0)
	}
	if i < 0 {
		if !h.abi.PointersAreCapabilities() {
			for size, fl := range h.free {
				for _, a := range fl {
					if a == addr {
						h.free[size] = append(fl, addr)
						h.frees++
						return nil
					}
				}
			}
		}
		return fmt.Errorf("alloc: invalid free of %#x", addr)
	}
	rsize := h.sizes[i]
	h.bases = append(h.bases[:i], h.bases[i+1:]...)
	h.sizes = append(h.sizes[:i], h.sizes[i+1:]...)
	h.ownBase, h.ownSize = 0, 0
	h.frees++
	h.liveBytes -= rsize
	if h.Quarantine {
		h.quarantined = append(h.quarantined, Range{Base: addr, Size: rsize})
		h.quarantineBytes += rsize
		return nil
	}
	h.free[rsize] = append(h.free[rsize], addr)
	return nil
}

// QuarantineBytes returns the bytes currently held in quarantine.
func (h *Heap) QuarantineBytes() uint64 { return h.quarantineBytes }

// DrainQuarantine returns the quarantined ranges (sorted by base) and
// releases them back to the free lists — the allocator half of a
// revocation sweep: once every capability into these ranges has been
// invalidated, reuse is safe.
func (h *Heap) DrainQuarantine() []Range {
	out := h.quarantined
	h.quarantined = nil
	h.quarantineBytes = 0
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	for _, r := range out {
		h.free[r.Size] = append(h.free[r.Size], r.Base)
	}
	return out
}

// LiveCount returns the number of live allocations.
func (h *Heap) LiveCount() int { return len(h.bases) }

// LiveRange returns the i-th live allocation in base-address order. It is
// the fault injector's deterministic victim-selection primitive: picking an
// index from a seeded RNG always lands on the same allocation.
func (h *Heap) LiveRange(i int) Range {
	if i < 0 || i >= len(h.bases) {
		return Range{}
	}
	return Range{Base: h.bases[i], Size: h.sizes[i]}
}

// Truncate shrinks the live allocation at base to newSize bytes (metadata
// only — models an injected capability-bounds truncation: accesses beyond
// the new size now fail their spatial check). newSize must be smaller than
// the current size and positive; Truncate reports whether it applied.
func (h *Heap) Truncate(base, newSize uint64) bool {
	i := h.indexOf(base)
	applied := i >= 0 && newSize != 0 && newSize < h.sizes[i]
	if applied {
		h.liveBytes -= h.sizes[i] - newSize
		h.sizes[i] = newSize
		h.ownBase, h.ownSize = 0, 0
	}
	if h.shadow != nil {
		h.shadow.Truncate(base, newSize, applied)
	}
	return applied
}

// SizeOf returns the usable size of the live allocation at addr, or false
// if addr is not a live allocation base.
func (h *Heap) SizeOf(addr uint64) (uint64, bool) {
	if i := h.indexOf(addr); i >= 0 {
		return h.sizes[i], true
	}
	return 0, false
}

// Owner returns the allocation base and size containing addr, by binary
// search of the interval table (O(log n)). The machine uses it to derive
// bounded capabilities for interior pointers and for spatial checks.
func (h *Heap) Owner(addr uint64) (base, size uint64, ok bool) {
	if addr-h.ownBase < h.ownSize {
		base, size, ok = h.ownBase, h.ownSize, true
	} else if i := h.find(addr); i >= 0 && addr-h.bases[i] < h.sizes[i] {
		base, size, ok = h.bases[i], h.sizes[i], true
		h.ownBase, h.ownSize = base, size
	}
	if h.shadow != nil {
		h.shadow.Owner(addr, base, size, ok)
	}
	return base, size, ok
}

// SetShadow installs (or, with nil, removes) the heap's lockstep observer
// and returns the previous one.
func (h *Heap) SetShadow(s Shadow) Shadow {
	prev := h.shadow
	h.shadow = s
	return prev
}

// Shadowed reports whether a lockstep observer is installed.
func (h *Heap) Shadowed() bool { return h.shadow != nil }

// Stats describes allocator activity and footprint.
type Stats struct {
	Allocs, Frees  uint64
	LiveBytes      uint64
	PeakLiveBytes  uint64
	RequestedBytes uint64
	RoundedBytes   uint64
	BrkBytes       uint64 // high-water bump pointer (address-space footprint)
}

// Stats returns a snapshot of allocator statistics.
func (h *Heap) Stats() Stats {
	return Stats{
		Allocs:         h.allocs,
		Frees:          h.frees,
		LiveBytes:      h.liveBytes,
		PeakLiveBytes:  h.peakLiveBytes,
		RequestedBytes: h.requested,
		RoundedBytes:   h.rounded,
		BrkBytes:       h.brk - h.base,
	}
}

// OverheadRatio returns rounded/requested bytes — the allocator-level
// footprint inflation caused by representability rounding (1.0 for hybrid).
func (s Stats) OverheadRatio() float64 {
	if s.RequestedBytes == 0 {
		return 1
	}
	return float64(s.RoundedBytes) / float64(s.RequestedBytes)
}

// Base returns the heap's base address.
func (h *Heap) Base() uint64 { return h.base }

// Brk returns the current bump pointer.
func (h *Heap) Brk() uint64 { return h.brk }
