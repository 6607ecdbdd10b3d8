package check

import (
	"fmt"

	"cherisim/internal/alloc"
	"cherisim/internal/refmodel"
)

// HeapChecker replays every live-set operation of one heap on the
// reference owner index. Commits, frees and truncations are compared on
// whether they applied and on the live count and live bytes that follow;
// owner lookups on their full result.
//
// A positive lookup is certified rather than re-searched: live ranges are
// disjoint (the allocator hands out fresh bump space or a freed block of
// the same class, and truncation only shrinks), so a range the reference
// holds live with exactly the claimed base and size, and which contains
// addr, is the owner. Only a negative answer needs the reference's full
// linear scan. That keeps a checked campaign's cost linear in its
// lookups instead of in lookups times live allocations.
type HeapChecker struct {
	stream
	opt *alloc.Heap
	ref *refmodel.Heap
}

// AttachHeap installs a lockstep checker behind h, which must be freshly
// built (no live allocations) so the reference starts in the same state. A
// heap that already has a shadow is left alone and nil is returned.
func AttachHeap(col *Collector, h *alloc.Heap) *HeapChecker {
	if h.Shadowed() {
		return nil
	}
	k := &HeapChecker{stream: stream{name: "heap", col: col}, opt: h, ref: refmodel.NewHeap()}
	h.SetShadow(k)
	return k
}

// Commit implements alloc.Shadow.
func (k *HeapChecker) Commit(base, size uint64) {
	if k.step(traceOp{kind: opHeapCommit, a: base, b: size}) {
		k.ref.Commit(base, size)
		k.compareLive()
	}
}

// Free implements alloc.Shadow.
func (k *HeapChecker) Free(addr uint64, live bool) {
	if !k.step(traceOp{kind: opHeapFree, a: addr}) {
		return
	}
	if refLive := k.ref.Free(addr); refLive != live {
		k.diverge(fmt.Sprintf("freed a live block: optimized %v, reference %v", live, refLive))
		return
	}
	k.compareLive()
}

// Truncate implements alloc.Shadow.
func (k *HeapChecker) Truncate(base, size uint64, applied bool) {
	if !k.step(traceOp{kind: opHeapTruncate, a: base, b: size}) {
		return
	}
	if refApplied := k.ref.Truncate(base, size); refApplied != applied {
		k.diverge(fmt.Sprintf("truncate applied: optimized %v, reference %v", applied, refApplied))
		return
	}
	k.compareLive()
}

// Owner implements alloc.Shadow.
func (k *HeapChecker) Owner(addr, base, size uint64, ok bool) {
	if !k.step(traceOp{kind: opHeapOwner, a: addr}) {
		return
	}
	if ok {
		if rs, live := k.ref.SizeOf(base); live && rs == size && addr >= base && addr-base < size {
			return
		}
	} else if _, _, rok := k.ref.Owner(addr); !rok {
		return
	}
	rb, rs, rok := k.ref.Owner(addr)
	k.diverge(fmt.Sprintf("owner: optimized [%#x,+%#x) %v, reference [%#x,+%#x) %v", base, size, ok, rb, rs, rok))
}

// Ref returns the reference owner index, for tests that query it
// directly.
func (k *HeapChecker) Ref() *refmodel.Heap { return k.ref }

// CompareLiveSet diffs the complete live set, in base order, against the
// reference, checks the ranges are disjoint (what Owner's certificate
// relies on), and reports whether all holds (recording a divergence when
// not). It costs O(n log n), so the lockstep hooks never call it; tests
// and fuzz targets do.
func (k *HeapChecker) CompareLiveSet() bool {
	if k.dead {
		return false
	}
	live := k.ref.Live()
	if n := k.opt.LiveCount(); n != len(live) {
		k.diverge(fmt.Sprintf("live count: optimized %d, reference %d", n, len(live)))
		return false
	}
	for i, r := range live {
		if got := k.opt.LiveRange(i); got != r {
			k.diverge(fmt.Sprintf("live range %d: optimized %+v, reference %+v", i, got, r))
			return false
		}
		if i > 0 && live[i-1].Size > r.Base-live[i-1].Base {
			k.diverge(fmt.Sprintf("live ranges overlap: %+v and %+v", live[i-1], r))
			return false
		}
	}
	return true
}

// compareLive diffs the live allocation count and live bytes.
func (k *HeapChecker) compareLive() {
	if n, rn := k.opt.LiveCount(), k.ref.LiveCount(); n != rn {
		k.diverge(fmt.Sprintf("live count: optimized %d, reference %d", n, rn))
		return
	}
	if b := k.opt.Stats().LiveBytes; b != k.ref.LiveBytes {
		k.diverge(fmt.Sprintf("live bytes: optimized %d, reference %d", b, k.ref.LiveBytes))
	}
}
