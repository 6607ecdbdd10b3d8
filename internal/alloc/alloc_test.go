package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cherisim/internal/abi"
	"cherisim/internal/cap"
)

const heapBase = 0x4000_0000

func newHeap(a abi.ABI) *Heap { return New(a, heapBase, 1<<30) }

func TestAllocBasics(t *testing.T) {
	h := newHeap(abi.Hybrid)
	a, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("duplicate allocation")
	}
	if a%minAlign != 0 || b%minAlign != 0 {
		t.Fatal("unaligned allocation")
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	for _, a := range abi.All() {
		h := newHeap(a)
		rng := rand.New(rand.NewSource(11))
		type region struct{ base, size uint64 }
		var regions []region
		for i := 0; i < 500; i++ {
			size := uint64(rng.Intn(1<<14) + 1)
			addr, err := h.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range regions {
				if addr < r.base+r.size && r.base < addr+size {
					t.Fatalf("abi %v: allocation [%#x,+%d) overlaps [%#x,+%d)", a, addr, size, r.base, r.size)
				}
			}
			regions = append(regions, region{addr, size})
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	h := newHeap(abi.Hybrid)
	a, _ := h.Alloc(64)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := h.Alloc(64)
	if a != b {
		t.Errorf("freed block not reused: %#x vs %#x", a, b)
	}
}

func TestInvalidFree(t *testing.T) {
	// A never-allocated address is an invalid free under every ABI.
	for _, a := range abi.All() {
		h := newHeap(a)
		if err := h.Free(0xdead); err == nil {
			t.Fatalf("%s: invalid free accepted", a)
		}
	}
	// Double free is detected under the capability ABIs only; hybrid
	// tolerates it like glibc's fastbin path (see TestHybridDoubleFreeAliases).
	for _, a := range []abi.ABI{abi.Benchmark, abi.Purecap} {
		h := newHeap(a)
		p, _ := h.Alloc(64)
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
		if err := h.Free(p); err == nil {
			t.Fatalf("%s: double free accepted", a)
		}
	}
}

func TestHybridDoubleFreeAliases(t *testing.T) {
	h := newHeap(abi.Hybrid)
	p, _ := h.Alloc(64)
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatalf("hybrid double free rejected: %v", err)
	}
	// The duplicated free-list entry hands the same block out twice.
	a, _ := h.Alloc(64)
	b, _ := h.Alloc(64)
	if a != p || b != p {
		t.Fatalf("fastbin dup not reproduced: got %#x, %#x, want both %#x", a, b, p)
	}
	// Index and byte accounting stay single-entry for the aliased block.
	if h.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d, want 1", h.LiveCount())
	}
	if got := h.Stats().LiveBytes; got != 64 {
		t.Fatalf("LiveBytes = %d, want 64", got)
	}
	if err := h.Free(p); err != nil {
		t.Fatalf("free of aliased block: %v", err)
	}
}

func TestPurecapRepresentabilityRounding(t *testing.T) {
	h := newHeap(abi.Purecap)
	// A large odd-sized allocation must be rounded so its capability is
	// exactly representable.
	size := uint64(1<<20 + 7)
	addr, err := h.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.SizeOf(addr)
	if got < size {
		t.Fatalf("usable size %d < requested %d", got, size)
	}
	if got != cap.RepresentableLength((size+15)&^15) {
		t.Errorf("rounded size %d != CRRL %d", got, cap.RepresentableLength((size+15)&^15))
	}
	mask := cap.RepresentableAlignmentMask(got)
	if addr&^mask != 0 {
		t.Errorf("base %#x not CRAM-aligned (mask %#x)", addr, mask)
	}
	// The capability for this allocation must be exact.
	if _, err := cap.Root().SetBoundsExact(addr, got); err != nil {
		t.Errorf("allocation not exactly representable: %v", err)
	}
}

func TestHybridNoRounding(t *testing.T) {
	h := newHeap(abi.Hybrid)
	size := uint64(1<<20 + 7)
	addr, _ := h.Alloc(size)
	got, _ := h.SizeOf(addr)
	want := (size + 15) &^ 15
	if got != want {
		t.Errorf("hybrid rounded %d to %d, want %d", size, got, want)
	}
	_ = addr
}

func TestPurecapFootprintInflation(t *testing.T) {
	// Large allocations inflate more under purecap than hybrid.
	hy, pc := newHeap(abi.Hybrid), newHeap(abi.Purecap)
	for i := 0; i < 100; i++ {
		size := uint64(100_000 + i*13)
		if _, err := hy.Alloc(size); err != nil {
			t.Fatal(err)
		}
		if _, err := pc.Alloc(size); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Stats().OverheadRatio() <= hy.Stats().OverheadRatio() {
		t.Errorf("purecap overhead %.4f <= hybrid %.4f",
			pc.Stats().OverheadRatio(), hy.Stats().OverheadRatio())
	}
}

func TestOwnerInteriorPointer(t *testing.T) {
	h := newHeap(abi.Purecap)
	a, _ := h.Alloc(256)
	base, size, ok := h.Owner(a + 100)
	if !ok || base != a || size < 256 {
		t.Fatalf("Owner(interior) = %#x,%d,%v", base, size, ok)
	}
	if _, _, ok := h.Owner(a + 100000); ok {
		t.Fatal("Owner found non-allocation")
	}
}

func TestOutOfMemory(t *testing.T) {
	h := New(abi.Hybrid, heapBase, 4096)
	if _, err := h.Alloc(1 << 20); err == nil {
		t.Fatal("oversized allocation accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	h := newHeap(abi.Hybrid)
	a, _ := h.Alloc(64)
	b, _ := h.Alloc(64)
	h.Free(a)
	s := h.Stats()
	if s.Allocs != 2 || s.Frees != 1 {
		t.Errorf("allocs/frees = %d/%d", s.Allocs, s.Frees)
	}
	if s.LiveBytes != 64 || s.PeakLiveBytes != 128 {
		t.Errorf("live/peak = %d/%d", s.LiveBytes, s.PeakLiveBytes)
	}
	_ = b
}

func TestAllocPropertyUsableSize(t *testing.T) {
	// Property: usable size always >= requested, base always aligned for
	// its size class, under every ABI.
	f := func(sizeSeed uint32, abiSeed uint8) bool {
		a := abi.ABI(abiSeed % uint8(abi.NumABIs))
		h := newHeap(a)
		size := uint64(sizeSeed%(1<<22)) + 1
		addr, err := h.Alloc(size)
		if err != nil {
			return false
		}
		usable, ok := h.SizeOf(addr)
		if !ok || usable < size {
			return false
		}
		if a.PointersAreCapabilities() {
			mask := cap.RepresentableAlignmentMask(usable)
			if addr&^mask != 0 {
				return false
			}
		}
		return addr%minAlign == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	h := newHeap(abi.Purecap)
	a, err := h.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	before := h.Stats()
	if !h.Truncate(a, 128) {
		t.Fatal("valid truncation refused")
	}
	if s, ok := h.SizeOf(a); !ok || s != 128 {
		t.Fatalf("SizeOf after truncate = %d, %v", s, ok)
	}
	after := h.Stats()
	if after.LiveBytes != before.LiveBytes-128 {
		t.Fatalf("liveBytes %d -> %d, want -128", before.LiveBytes, after.LiveBytes)
	}
	// Owner-based spatial checks must now reject the truncated tail.
	if _, size, ok := h.Owner(a + 64); !ok || size != 128 {
		t.Fatalf("Owner after truncate: size=%d ok=%v", size, ok)
	}
	// Invalid truncations: growing, zero, same size, unknown base.
	if h.Truncate(a, 256) || h.Truncate(a, 128) || h.Truncate(a, 0) || h.Truncate(a+16, 64) {
		t.Fatal("invalid truncation applied")
	}
	// The truncated allocation still frees cleanly.
	if err := h.Free(a); err != nil {
		t.Fatalf("free after truncate: %v", err)
	}
}

func TestLiveRangeDeterministicOrder(t *testing.T) {
	h := newHeap(abi.Hybrid)
	var bases []uint64
	for i := 0; i < 8; i++ {
		a, err := h.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, a)
	}
	if h.LiveCount() != 8 {
		t.Fatalf("LiveCount = %d", h.LiveCount())
	}
	for i := 1; i < h.LiveCount(); i++ {
		if h.LiveRange(i).Base <= h.LiveRange(i-1).Base {
			t.Fatal("LiveRange not in base order")
		}
	}
	if r := h.LiveRange(-1); r != (Range{}) {
		t.Fatalf("LiveRange(-1) = %+v", r)
	}
	if r := h.LiveRange(8); r != (Range{}) {
		t.Fatalf("LiveRange(len) = %+v", r)
	}
	_ = bases
}

// TestOwnerAddressSpaceEdges pins Owner at both ends of the 64-bit space,
// where a search for the first base above addr+1 would wrap: Owner(0) and
// Owner(^uint64(0)) must answer from the allocations actually there.
func TestOwnerAddressSpaceEdges(t *testing.T) {
	for _, a := range []abi.ABI{abi.Hybrid, abi.Purecap} {
		// A heap based at address 0: the first block owns address 0.
		low := New(a, 0, 1<<20)
		p, err := low.Alloc(64)
		if err != nil || p != 0 {
			t.Fatalf("%v: first block at %#x (%v), want 0", a, p, err)
		}
		if base, size, ok := low.Owner(0); !ok || base != 0 || size < 64 {
			t.Fatalf("%v: Owner(0) = %#x %d %v", a, base, size, ok)
		}
		if _, _, ok := low.Owner(^uint64(0)); ok {
			t.Fatalf("%v: Owner(max) found a block in a low heap", a)
		}
		// A heap ending just below the top of the space.
		top := New(a, ^uint64(0)-(1<<20)+1, 1<<20-16)
		var last uint64
		for {
			q, err := top.Alloc(4096)
			if err != nil {
				break
			}
			last = q
		}
		base, size, ok := top.Owner(last + 1)
		if !ok || base != last {
			t.Fatalf("%v: Owner(last+1) = %#x %v, want %#x", a, base, ok, last)
		}
		if _, _, ok := top.Owner(^uint64(0)); ok {
			t.Fatalf("%v: Owner(max) claimed by a block ending at %#x", a, base+size)
		}
		if _, _, ok := top.Owner(0); ok {
			t.Fatalf("%v: Owner(0) found a block in a top-of-space heap", a)
		}
		// With the memo pointing at the last block, the edges still miss.
		top.Owner(last)
		if _, _, ok := top.Owner(^uint64(0)); ok {
			t.Fatalf("%v: memo answered Owner(max)", a)
		}
	}
}

// TestAliasRecommitRefreshesOwner covers a truncated block re-committed
// through the hybrid double-free alias: the re-commit restores the class
// size, and Owner must report it rather than the truncated size it
// memoised before.
func TestAliasRecommitRefreshesOwner(t *testing.T) {
	h := newHeap(abi.Hybrid)
	p, _ := h.Alloc(64)
	h.Free(p)
	h.Free(p) // tolerated: the free list now holds p twice
	if q, _ := h.Alloc(64); q != p {
		t.Fatalf("first pop = %#x, want %#x", q, p)
	}
	if !h.Truncate(p, 32) {
		t.Fatal("truncate refused")
	}
	if _, size, ok := h.Owner(p + 8); !ok || size != 32 {
		t.Fatalf("Owner after truncate = %d %v, want 32", size, ok)
	}
	if q, _ := h.Alloc(64); q != p {
		t.Fatalf("second pop = %#x, want the alias %#x", q, p)
	}
	if _, size, ok := h.Owner(p + 8); !ok || size != 64 {
		t.Fatalf("Owner after alias re-commit = %d %v, want 64", size, ok)
	}
	if h.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d, want 1", h.LiveCount())
	}
}
