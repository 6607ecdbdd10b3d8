package check

import (
	"fmt"

	"cherisim/internal/cache"
	"cherisim/internal/refmodel"
)

// CacheChecker replays every operation of one optimized cache on a naive
// reference cache and diffs the two after each step: the access result
// (hit, write-back, write-back address), the full statistics block, and
// the complete state of the touched set (tag, valid, dirty, LRU sequence
// per way — so victim-choice divergence is caught on the very access that
// causes it, not when the wrong line is later evicted).
type CacheChecker struct {
	stream
	opt *cache.Cache
	ref *refmodel.Cache
	// Reused snapshot buffers keep the per-access compare allocation-free.
	optBuf, refBuf []cache.LineState
}

// AttachCache installs a lockstep checker behind c, which must be freshly
// built (empty, zero stats) so the reference model starts in the same
// state. A cache that already has a shadow is left alone and nil is
// returned.
func AttachCache(col *Collector, c *cache.Cache) *CacheChecker {
	if c.Shadowed() {
		return nil
	}
	k := &CacheChecker{
		stream: stream{name: c.Config().Name, col: col},
		opt:    c,
		ref:    refmodel.NewCache(c.Config()),
	}
	c.SetShadow(k)
	return k
}

// Access implements cache.Shadow.
func (k *CacheChecker) Access(addr uint64, write bool, res cache.Result) {
	kind := uint8(opCacheRead)
	if write {
		kind = opCacheWrite
	}
	if !k.step(traceOp{kind: kind, a: addr}) {
		return
	}
	refRes := k.ref.Access(addr, write)
	if refRes != res {
		k.diverge(fmt.Sprintf("result: optimized %+v, reference %+v", res, refRes))
		return
	}
	k.compareState(k.opt.Set(addr))
}

// InvalidateAll implements cache.Shadow.
func (k *CacheChecker) InvalidateAll(writeBacks int) {
	if !k.step(traceOp{kind: opCacheFlush}) {
		return
	}
	refWB := k.ref.InvalidateAll()
	if refWB != writeBacks {
		k.diverge(fmt.Sprintf("write-backs: optimized %d, reference %d", writeBacks, refWB))
		return
	}
	k.compareState(0)
}

// compareState diffs statistics and the given set's full state.
func (k *CacheChecker) compareState(set int) {
	if k.opt.Stats != k.ref.Stats {
		k.diverge(fmt.Sprintf("stats: optimized %+v, reference %+v", k.opt.Stats, k.ref.Stats))
		return
	}
	k.optBuf = k.opt.AppendSetState(k.optBuf[:0], set)
	k.refBuf = k.ref.AppendSetState(k.refBuf[:0], set)
	for w := range k.optBuf {
		if k.optBuf[w] != k.refBuf[w] {
			k.diverge(fmt.Sprintf("set %d way %d: optimized %+v, reference %+v", set, w, k.optBuf[w], k.refBuf[w]))
			return
		}
	}
}
