package check_test

import (
	"bytes"
	"testing"

	"cherisim/internal/abi"
	"cherisim/internal/alloc"
	"cherisim/internal/cap"
	"cherisim/internal/check"
	"cherisim/internal/mem"
)

// fuzzHeapBase is the small simulated heap the owner-index scripts run on.
const fuzzHeapBase = 0x4000_0000

// runOwnerScript interprets script as heap operations on a checked heap of
// the given ABI, three bytes per operation (opcode, operand, offset), and
// fails on the first divergence. Freed pointers stay in the pointer pool,
// so double frees — and under hybrid the fastbin-dup alias they create —
// come up naturally.
func runOwnerScript(t *testing.T, a abi.ABI, script []byte) {
	t.Helper()
	col := check.NewCollector(nil)
	h := alloc.New(a, fuzzHeapBase, 1<<24)
	k := check.AttachHeap(col, h)
	if k == nil {
		t.Fatal("AttachHeap returned nil for a fresh heap")
	}
	var ptrs []uint64
	pick := func(n byte) uint64 {
		if len(ptrs) == 0 {
			return fuzzHeapBase
		}
		return ptrs[int(n)%len(ptrs)]
	}
	for i := 0; i+2 < len(script); i += 3 {
		op, n, off := script[i], script[i+1], uint64(script[i+2])
		switch op % 6 {
		case 0, 1: // alloc: small sizes, so free-list reuse is common
			size := uint64(n)%96*16 + off%16
			if p, err := h.Alloc(size); err == nil {
				ptrs = append(ptrs, p)
			}
		case 2:
			h.Free(pick(n))
		case 3:
			p := pick(n)
			if size, ok := h.SizeOf(p); ok {
				h.Truncate(p, size*off/256)
			} else {
				h.Truncate(p, off)
			}
		case 4: // owner of an interior, edge or outside address
			p := pick(n)
			switch off % 4 {
			case 0:
				h.Owner(p + off)
			case 1:
				h.Owner(p - 1 - off%16)
			case 2:
				size, _ := h.SizeOf(p)
				h.Owner(p + size)
			default:
				h.Owner([]uint64{0, ^uint64(0), fuzzHeapBase - 1, fuzzHeapBase + 1<<24}[n%4])
			}
		case 5:
			p := pick(n) + off%2*16 // a live base, or not one
			size, ok := h.SizeOf(p)
			if rs, rok := k.Ref().SizeOf(p); size != rs || ok != rok {
				t.Fatalf("op %d: SizeOf(%#x) = %d %v, reference %d %v", i/3, p, size, ok, rs, rok)
			}
		}
		if rep := col.Report(); rep.Divergences != 0 {
			t.Fatalf("%v: op %d: %v", a, i/3, rep.First[0])
		}
		if !k.CompareLiveSet() {
			t.Fatalf("%v: op %d: %v", a, i/3, col.Report().First[0])
		}
	}
}

// FuzzOwnerLockstep drives the heap's interval table and owner memo with
// scripted Alloc/Free/Truncate/Owner/SizeOf under both the hybrid and the
// purecap ABI, the linear-scan reference in lockstep.
func FuzzOwnerLockstep(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 4, 0, 4, 0, 9, 2, 0, 0, 4, 0, 0})
	// Hybrid double free, then two allocations of the class alias.
	f.Add([]byte{0, 3, 0, 2, 0, 0, 2, 0, 0, 0, 3, 0, 0, 3, 0, 4, 0, 3, 2, 0, 0})
	f.Add([]byte{0, 90, 5, 1, 2, 0, 3, 0, 128, 4, 0, 2, 4, 1, 1, 5, 0, 0, 4, 0, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		runOwnerScript(t, abi.Hybrid, script)
		runOwnerScript(t, abi.Purecap, script)
	})
}

// TestOwnerLockstepDoubleFreeAlias pins the hybrid fastbin-dup path: the
// second pop of a doubly freed block re-commits a live base, which must
// stay a single entry in both the interval table and the reference.
func TestOwnerLockstepDoubleFreeAlias(t *testing.T) {
	script := []byte{
		0, 3, 0, // alloc 48
		2, 0, 0, // free it
		2, 0, 0, // free it again: hybrid duplicates the free-list entry
		0, 3, 0, // alloc: pops the block
		0, 3, 0, // alloc: pops it again — the alias
		4, 1, 8, // owner inside it
		2, 1, 0, // free through one alias
		4, 2, 8, // owner through the other: freed
	}
	runOwnerScript(t, abi.Hybrid, script)
	runOwnerScript(t, abi.Purecap, script)
	// Truncate the block between the two pops: the alias re-commit
	// restores its class size, which Owner must then report.
	script = []byte{
		0, 3, 0, 2, 0, 0, 2, 0, 0, // alloc 48, free it twice
		0, 3, 0, // first pop
		3, 1, 128, // truncate it to half
		4, 1, 8, // owner memoises the truncated size
		0, 3, 0, // second pop: the alias re-commit
		4, 1, 8, // owner must see the class size again
	}
	runOwnerScript(t, abi.Hybrid, script)
	runOwnerScript(t, abi.Purecap, script)
}

// Memory fuzz addresses: page-straddling, direct-mapped-slot aliasing
// (page numbers 256 apart), the 2^47 edge of the simulated address space,
// and the top of the 64-bit space, where a multi-byte access wraps.
var memFuzzBases = []uint64{
	0x1000,
	2*mem.PageSize - 5,
	0x1000 + 256*mem.PageSize,
	1<<47 - 9,
	1 << 47,
	1<<63 + 0x10,
	^uint64(0) - 20,
	^uint64(0) - 3,
}

// runMemoryScript interprets script as memory accesses on a checked memory,
// three bytes per operation (opcode, address base, offset), and fails on
// the first divergence or on any mismatch in the results the shadow does
// not see (errors, resident pages, tagged-granule order).
func runMemoryScript(t *testing.T, script []byte) {
	t.Helper()
	col := check.NewCollector(nil)
	m := mem.New()
	k := check.AttachMemory(col, m)
	if k == nil {
		t.Fatal("AttachMemory returned nil for a fresh memory")
	}
	ref := k.Ref()
	for i := 0; i+2 < len(script); i += 3 {
		op, off := script[i], uint64(script[i+2])
		addr := memFuzzBases[int(script[i+1])%len(memFuzzBases)] + off
		val := uint64(i+1) * 0x9E3779B97F4A7C15
		size := uint64(1) << (op >> 4 & 3)
		switch op % 8 {
		case 0:
			m.WriteUint(addr, val, size)
		case 1:
			m.ReadUint(addr, size)
		case 2:
			b := make([]byte, op>>3)
			for j := range b {
				b[j] = byte(val >> (j % 8 * 8))
			}
			m.WriteBytes(addr, b)
		case 3:
			m.ReadBytes(addr, uint64(op>>3))
		case 4:
			a := addr &^ 15
			if op&0x80 != 0 {
				a = addr // usually unaligned
			}
			e := cap.Encoded{Addr: val, Meta: ^val}
			err := m.WriteCap(a, e, op&0x40 != 0)
			if ok := ref.WriteCap(a, e, op&0x40 != 0); (err == nil) != ok {
				t.Fatalf("op %d: WriteCap(%#x) error %v, reference ok %v", i/3, a, err, ok)
			}
		case 5:
			a := addr &^ 15
			if op&0x80 != 0 {
				a = addr
			}
			_, _, err := m.ReadCap(a)
			if _, _, ok := ref.ReadCap(a); (err == nil) != ok {
				t.Fatalf("op %d: ReadCap(%#x) error %v, reference ok %v", i/3, a, err, ok)
			}
		case 6:
			m.TagAt(addr)
		case 7:
			m.ClearTag(addr)
		}
		if rep := col.Report(); rep.Divergences != 0 {
			t.Fatalf("op %d: %v", i/3, rep.First[0])
		}
	}
	if m.Populated() != ref.Populated() {
		t.Fatalf("populated: optimized %d, reference %d", m.Populated(), ref.Populated())
	}
	var got, want []uint64
	m.ForEachTaggedGranule(func(a uint64) { got = append(got, a) })
	ref.ForEachTaggedGranule(func(a uint64) { want = append(want, a) })
	if len(got) != len(want) || uint64(len(want)) != m.TaggedGranules() {
		t.Fatalf("tagged granules: optimized %#x (count %d), reference %#x", got, m.TaggedGranules(), want)
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("tagged granule %d: optimized %#x, reference %#x", j, got[j], want[j])
		}
	}
}

// FuzzMemoryLockstep drives the simulated memory's direct-mapped page
// array, in-place capability accesses and tag clearing against the
// map-backed reference.
func FuzzMemoryLockstep(f *testing.F) {
	f.Add([]byte{0x30, 0, 0, 0x31, 0, 0, 0x44, 0, 16, 0x45, 0, 16, 0x06, 0, 20})
	f.Add([]byte{0x30, 1, 0, 0x31, 1, 0, 0x44, 2, 0, 0x45, 0, 0, 0x80, 3, 0})
	f.Add([]byte{0x42, 6, 0, 0x30, 7, 0, 0x43, 7, 0, 0x31, 7, 0, 0x44, 5, 0, 0x07, 5, 0})
	f.Fuzz(runMemoryScript)
}

// TestMemoryLockstepEdges walks the scripted edge cases once
// deterministically: a capability beside a page-straddling data write, two
// pages that share a direct-mapped slot, both sides of 2^47, and a data
// write that wraps from the top of the address space to page 0 and must
// clear the tags on both ends.
func TestMemoryLockstepEdges(t *testing.T) {
	var script []byte
	for b := range memFuzzBases {
		script = append(script,
			0x44, byte(b), 0, // tagged capability at the base's granule
			0x44, byte(b), 16, // and at the next
			0x30, byte(b), 12, // 8-byte data write straddling the two granules
			0x05, byte(b), 0, 0x05, byte(b), 16, // read both capabilities back
			0x06, byte(b), 16, 0x07, byte(b), 0, 0x06, byte(b), 0,
			0x31, byte(b), 4, 0x1b, byte(b), 0, // 8-byte read, 3-byte bytes read
			0xfa, byte(b), 0, // 31-byte write
			0xfb, byte(b), 0,
		)
	}
	runMemoryScript(t, script)
}

// TestMemoryWrapClearsTags pins the top-of-space wrap: a data write that
// runs past 2^64 lands on page 0 and clears the tags it overlaps at both
// ends.
func TestMemoryWrapClearsTags(t *testing.T) {
	m := mem.New()
	top := ^uint64(0) - 15 // the last granule
	if err := m.WriteCap(top, cap.Encoded{Addr: 1}, true); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteCap(0, cap.Encoded{Addr: 2}, true); err != nil {
		t.Fatal(err)
	}
	m.WriteBytes(^uint64(0)-1, []byte{1, 2, 3, 4})
	if m.TagAt(top) || m.TagAt(0) {
		t.Fatalf("wrapping write left tags: top %v, zero %v", m.TagAt(top), m.TagAt(0))
	}
	if got := m.ReadBytes(^uint64(0)-1, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("wrapping read = %v", got)
	}
}
