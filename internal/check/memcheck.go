package check

import (
	"bytes"
	"fmt"

	"cherisim/internal/cap"
	"cherisim/internal/mem"
	"cherisim/internal/refmodel"
)

// MemoryChecker replays every access to one simulated memory on the
// map-backed reference: each write is applied to both and followed by a
// resident-page count compare, and each read, capability load, tag query
// and tag clear is compared on the value it returned.
type MemoryChecker struct {
	stream
	opt *mem.Memory
	ref *refmodel.Memory
}

// AttachMemory installs a lockstep checker behind m, which must be freshly
// built (nothing written) so the reference starts in the same state. A
// memory that already has a shadow is left alone and nil is returned.
func AttachMemory(col *Collector, m *mem.Memory) *MemoryChecker {
	if m.Shadowed() {
		return nil
	}
	k := &MemoryChecker{stream: stream{name: "mem", col: col}, opt: m, ref: refmodel.NewMemory()}
	m.SetShadow(k)
	return k
}

// ReadUint implements mem.Shadow.
func (k *MemoryChecker) ReadUint(addr, size, val uint64) {
	if !k.step(traceOp{kind: opMemRead, a: addr, b: size}) {
		return
	}
	if want := k.ref.ReadUint(addr, size); want != val {
		k.diverge(fmt.Sprintf("value: optimized %#x, reference %#x", val, want))
	}
}

// WriteUint implements mem.Shadow.
func (k *MemoryChecker) WriteUint(addr, val, size uint64) {
	if k.step(traceOp{kind: opMemWrite, a: addr, b: size}) {
		k.ref.WriteUint(addr, val, size)
		k.comparePages()
	}
}

// ReadBytes implements mem.Shadow.
func (k *MemoryChecker) ReadBytes(addr uint64, b []byte) {
	if !k.step(traceOp{kind: opMemRead, a: addr, b: uint64(len(b))}) {
		return
	}
	if want := k.ref.ReadBytes(addr, uint64(len(b))); !bytes.Equal(b, want) {
		k.diverge(fmt.Sprintf("bytes: optimized %x, reference %x", b, want))
	}
}

// WriteBytes implements mem.Shadow.
func (k *MemoryChecker) WriteBytes(addr uint64, b []byte) {
	if k.step(traceOp{kind: opMemWrite, a: addr, b: uint64(len(b))}) {
		k.ref.WriteBytes(addr, b)
		k.comparePages()
	}
}

// ReadCap implements mem.Shadow.
func (k *MemoryChecker) ReadCap(addr uint64, e cap.Encoded, tag bool) {
	if !k.step(traceOp{kind: opMemReadCap, a: addr}) {
		return
	}
	if re, rtag, _ := k.ref.ReadCap(addr); re != e || rtag != tag {
		k.diverge(fmt.Sprintf("capability: optimized %+v tag %v, reference %+v tag %v", e, tag, re, rtag))
	}
}

// WriteCap implements mem.Shadow.
func (k *MemoryChecker) WriteCap(addr uint64, e cap.Encoded, tag bool) {
	var t uint64
	if tag {
		t = 1
	}
	if k.step(traceOp{kind: opMemWriteCap, a: addr, b: t}) {
		k.ref.WriteCap(addr, e, tag)
		k.comparePages()
	}
}

// TagAt implements mem.Shadow.
func (k *MemoryChecker) TagAt(addr uint64, tag bool) {
	if !k.step(traceOp{kind: opMemTagAt, a: addr}) {
		return
	}
	if want := k.ref.TagAt(addr); want != tag {
		k.diverge(fmt.Sprintf("tag: optimized %v, reference %v", tag, want))
	}
}

// ClearTag implements mem.Shadow.
func (k *MemoryChecker) ClearTag(addr uint64, cleared bool) {
	if !k.step(traceOp{kind: opMemClearTag, a: addr}) {
		return
	}
	if want := k.ref.ClearTag(addr); want != cleared {
		k.diverge(fmt.Sprintf("cleared: optimized %v, reference %v", cleared, want))
	}
}

// Ref returns the reference memory, for tests that query it directly.
func (k *MemoryChecker) Ref() *refmodel.Memory { return k.ref }

// comparePages diffs the resident page count.
func (k *MemoryChecker) comparePages() {
	if n, rn := k.opt.Populated(), k.ref.Populated(); n != rn {
		k.diverge(fmt.Sprintf("populated pages: optimized %d, reference %d", n, rn))
	}
}
