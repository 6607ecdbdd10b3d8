package check

import (
	"fmt"

	"cherisim/internal/refmodel"
	"cherisim/internal/tlb"
)

// TLBChecker replays every operation of one optimized TLB on a naive
// linear-scan reference and diffs the two after each step. Lookups are
// compared on outcome and statistics (any LRU-touch bug still surfaces at
// the next insertion's full state compare); insertions and flushes are
// compared on the complete entry array, and insertions additionally run
// the optimized TLB's own structural invariant check, which is what pins
// the index-corruption class of bug to the exact insert that causes
// it.
type TLBChecker struct {
	stream
	opt *tlb.TLB
	ref *refmodel.TLB
	// Reused snapshot buffers keep the per-insert compare allocation-free.
	optBuf, refBuf []tlb.EntryState
}

// AttachTLB installs a lockstep checker behind t, which must be freshly
// built (empty, zero stats) so the reference model starts in the same
// state. A TLB that already has a shadow — the shared L2 TLB seen from
// the second hierarchy, typically — is left alone and nil is returned.
func AttachTLB(col *Collector, t *tlb.TLB) *TLBChecker {
	if t.Shadowed() {
		return nil
	}
	k := &TLBChecker{
		stream: stream{name: t.Config().Name, col: col},
		opt:    t,
		ref:    refmodel.NewTLB(t.Config()),
	}
	t.SetShadow(k)
	return k
}

// Lookup implements tlb.Shadow.
func (k *TLBChecker) Lookup(vpn uint64, hit bool) {
	if !k.step(traceOp{kind: opTLBLookup, a: vpn}) {
		return
	}
	refHit := k.ref.Lookup(vpn)
	if refHit != hit {
		k.diverge(fmt.Sprintf("hit: optimized %v, reference %v", hit, refHit))
		return
	}
	if k.opt.Stats != k.ref.Stats {
		k.diverge(fmt.Sprintf("stats: optimized %+v, reference %+v", k.opt.Stats, k.ref.Stats))
	}
}

// Insert implements tlb.Shadow.
func (k *TLBChecker) Insert(vpn uint64) {
	if !k.step(traceOp{kind: opTLBInsert, a: vpn}) {
		return
	}
	k.ref.Insert(vpn)
	if err := k.opt.CheckInvariants(); err != nil {
		k.diverge(fmt.Sprintf("invariant: %v", err))
		return
	}
	k.compareState()
}

// InvalidateAll implements tlb.Shadow.
func (k *TLBChecker) InvalidateAll() {
	if !k.step(traceOp{kind: opTLBFlush}) {
		return
	}
	k.ref.InvalidateAll()
	k.compareState()
}

// compareState diffs statistics and the full entry array.
func (k *TLBChecker) compareState() {
	if k.opt.Stats != k.ref.Stats {
		k.diverge(fmt.Sprintf("stats: optimized %+v, reference %+v", k.opt.Stats, k.ref.Stats))
		return
	}
	k.optBuf = k.opt.AppendEntryState(k.optBuf[:0])
	k.refBuf = k.ref.AppendEntryState(k.refBuf[:0])
	for i := range k.optBuf {
		if k.optBuf[i] != k.refBuf[i] {
			k.diverge(fmt.Sprintf("entry %d: optimized %+v, reference %+v", i, k.optBuf[i], k.refBuf[i]))
			return
		}
	}
}
