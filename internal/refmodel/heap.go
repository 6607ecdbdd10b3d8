package refmodel

import (
	"sort"

	"cherisim/internal/alloc"
)

// Heap is the reference heap owner index: the live allocations as a plain
// map from base to size, with Owner answered by a linear scan over every
// live range — no ordering, no binary search, no owner memo. It mirrors
// the live-set operations alloc.Shadow reports.
type Heap struct {
	live      map[uint64]uint64
	LiveBytes uint64
}

// NewHeap returns an empty reference heap.
func NewHeap() *Heap { return &Heap{live: map[uint64]uint64{}} }

// Commit makes [base, base+size) live. Committing a base that is already
// live (the hybrid double-free alias) only replaces its size; the live
// byte count is charged once.
func (h *Heap) Commit(base, size uint64) {
	if _, aliased := h.live[base]; !aliased {
		h.LiveBytes += size
	}
	h.live[base] = size
}

// Free releases the live range based at base and reports whether there
// was one.
func (h *Heap) Free(base uint64) bool {
	size, ok := h.live[base]
	if ok {
		h.LiveBytes -= size
		delete(h.live, base)
	}
	return ok
}

// Truncate shrinks the live range based at base to size, when size is
// positive and smaller than its current size, and reports whether it did.
func (h *Heap) Truncate(base, size uint64) bool {
	cur, ok := h.live[base]
	if !ok || size == 0 || size >= cur {
		return false
	}
	h.LiveBytes -= cur - size
	h.live[base] = size
	return true
}

// Owner returns the live range containing addr, by scanning them all.
func (h *Heap) Owner(addr uint64) (base, size uint64, ok bool) {
	for b, s := range h.live {
		if addr >= b && addr-b < s {
			return b, s, true
		}
	}
	return 0, 0, false
}

// SizeOf returns the size of the live range based at base.
func (h *Heap) SizeOf(base uint64) (uint64, bool) {
	size, ok := h.live[base]
	return size, ok
}

// LiveCount returns the number of live ranges.
func (h *Heap) LiveCount() int { return len(h.live) }

// Live returns the live ranges in ascending base order — the order
// alloc.Heap.LiveRange indexes.
func (h *Heap) Live() []alloc.Range {
	out := make([]alloc.Range, 0, len(h.live))
	for b, s := range h.live {
		out = append(out, alloc.Range{Base: b, Size: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}
