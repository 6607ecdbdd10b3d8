package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"cherisim/internal/cap"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	data := []byte("hello, morello")
	m.WriteBytes(0x1000, data)
	got := m.ReadBytes(0x1000, uint64(len(data)))
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestReadUnpopulatedIsZero(t *testing.T) {
	m := New()
	got := m.ReadBytes(0xdead0000, 16)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unpopulated memory not zero")
		}
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	data := []byte{1, 2, 3, 4, 5, 6}
	m.WriteBytes(addr, data)
	if got := m.ReadBytes(addr, 6); !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip: got %v want %v", got, data)
	}
	if m.Populated() != 2 {
		t.Errorf("populated pages = %d, want 2", m.Populated())
	}
}

func TestUintRoundTrip(t *testing.T) {
	f := func(addr, val uint64) bool {
		addr %= 1 << 40
		m := New()
		m.WriteUint(addr, val, 8)
		return m.ReadUint(addr, 8) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUintWidths(t *testing.T) {
	m := New()
	m.WriteUint(0, 0x1122334455667788, 8)
	if got := m.ReadUint(0, 4); got != 0x55667788 {
		t.Errorf("4-byte read = %#x", got)
	}
	if got := m.ReadUint(0, 2); got != 0x7788 {
		t.Errorf("2-byte read = %#x", got)
	}
	if got := m.ReadUint(0, 1); got != 0x88 {
		t.Errorf("1-byte read = %#x", got)
	}
}

func TestCapStoreLoadPreservesTag(t *testing.T) {
	m := New()
	c := cap.New(0x4000, 0x100, cap.PermsData)
	enc, tag := c.Encode()
	if err := m.WriteCap(0x8000, enc, tag); err != nil {
		t.Fatal(err)
	}
	gotEnc, gotTag, err := m.ReadCap(0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if !gotTag {
		t.Fatal("tag lost through memory")
	}
	d := cap.Decode(gotEnc, gotTag)
	if d.Base() != c.Base() || d.Top() != c.Top() || d.Address() != c.Address() {
		t.Fatalf("capability corrupted: got %v want %v", d, c)
	}
}

func TestNonCapStoreClearsTag(t *testing.T) {
	m := New()
	c := cap.New(0x4000, 0x100, cap.PermsData)
	enc, tag := c.Encode()
	if err := m.WriteCap(0x8000, enc, tag); err != nil {
		t.Fatal(err)
	}
	// Overwrite one byte in the middle of the capability granule.
	m.WriteBytes(0x8007, []byte{0xff})
	_, gotTag, _ := m.ReadCap(0x8000)
	if gotTag {
		t.Fatal("non-capability store failed to clear the tag")
	}
}

func TestAdjacentStoreKeepsTag(t *testing.T) {
	m := New()
	c := cap.New(0x4000, 0x100, cap.PermsData)
	enc, tag := c.Encode()
	if err := m.WriteCap(0x8000, enc, tag); err != nil {
		t.Fatal(err)
	}
	// A store to the neighbouring granule must not disturb the tag.
	m.WriteBytes(0x8010, []byte{1, 2, 3, 4})
	if _, gotTag, _ := m.ReadCap(0x8000); !gotTag {
		t.Fatal("adjacent store cleared an unrelated tag")
	}
}

func TestUnalignedCapAccessRejected(t *testing.T) {
	m := New()
	if err := m.WriteCap(0x8004, cap.Encoded{}, true); err == nil {
		t.Error("unaligned capability store accepted")
	}
	if _, _, err := m.ReadCap(0x8004); err == nil {
		t.Error("unaligned capability load accepted")
	}
}

func TestUntaggedCapLoad(t *testing.T) {
	m := New()
	enc, _ := cap.New(0, 16, cap.PermsData).Encode()
	if err := m.WriteCap(0x1000, enc, false); err != nil {
		t.Fatal(err)
	}
	_, tag, _ := m.ReadCap(0x1000)
	if tag {
		t.Fatal("untagged store produced tagged load")
	}
}

func TestTaggedGranulesCount(t *testing.T) {
	m := New()
	enc, _ := cap.Root().Encode()
	for i := 0; i < 5; i++ {
		if err := m.WriteCap(uint64(i)*32, enc, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.TaggedGranules(); n != 5 {
		t.Errorf("tagged granules = %d, want 5", n)
	}
	m.WriteBytes(0, []byte{0})
	if n := m.TaggedGranules(); n != 4 {
		t.Errorf("after clearing store, tagged granules = %d, want 4", n)
	}
}

func TestTrafficCounters(t *testing.T) {
	m := New()
	m.WriteBytes(0, make([]byte, 100))
	m.ReadBytes(0, 40)
	if m.BytesWritten != 100 || m.BytesRead != 40 {
		t.Errorf("traffic = r%d/w%d, want r40/w100", m.BytesRead, m.BytesWritten)
	}
}

func TestClearTag(t *testing.T) {
	m := New()
	c := cap.New(0x4000, 64, cap.PermsData)
	enc, tag := c.Encode()
	m.WriteCap(0x4000, enc, tag)
	if !m.TagAt(0x4000) {
		t.Fatal("tag not set after WriteCap")
	}
	// Any address inside the granule clears it.
	if !m.ClearTag(0x4008) {
		t.Fatal("ClearTag missed a set tag")
	}
	if m.TagAt(0x4000) {
		t.Fatal("tag survived ClearTag")
	}
	// Data must be intact; only validity is gone.
	enc2, tag2, err := m.ReadCap(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if tag2 {
		t.Fatal("ReadCap still tagged")
	}
	if enc2 != enc {
		t.Fatal("ClearTag corrupted data bits")
	}
	// Clearing an untagged granule reports false.
	if m.ClearTag(0x4000) || m.ClearTag(0x9000) {
		t.Fatal("ClearTag reported success on untagged granule")
	}
}

// TestHotAccessesDoNotAllocate pins the per-access paths at zero heap
// allocations: capability loads and stores are read and written in place
// (a purecap pointer load used to allocate a 16-byte slice), and integer
// accesses, including page-straddling ones, use stack buffers.
func TestHotAccessesDoNotAllocate(t *testing.T) {
	m := New()
	enc, tag := cap.New(0x4000, 64, cap.PermsData).Encode()
	if err := m.WriteCap(0x4000, enc, tag); err != nil {
		t.Fatal(err)
	}
	straddle := uint64(2*PageSize - 4)
	m.WriteUint(straddle, 1, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := m.ReadCap(0x4000); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteCap(0x4010, enc, tag); err != nil {
			t.Fatal(err)
		}
		m.ReadCap(0x7000_0000) // unpopulated
		m.WriteUint(0x4020, 7, 8)
		m.ReadUint(0x4020, 8)
		m.ReadUint(straddle, 8)
		m.WriteUint(straddle, 2, 8)
		m.TagAt(0x4000)
	})
	if allocs != 0 {
		t.Fatalf("hot memory accesses allocate %.1f times per run", allocs)
	}
}

// TestDirectMappedSlotSharing checks two pages that resolve through the
// same direct-mapped slot (page numbers recentPages apart) keep their own
// contents and tags when accesses alternate between them.
func TestDirectMappedSlotSharing(t *testing.T) {
	m := New()
	a := uint64(0x10_0000)
	b := a + recentPages*PageSize
	enc, _ := cap.Root().Encode()
	m.WriteCap(a, enc, true)
	m.WriteUint(b, 0xbeef, 8)
	for i := 0; i < 3; i++ {
		if got := m.ReadUint(b, 8); got != 0xbeef {
			t.Fatalf("page b read %#x", got)
		}
		if e, tagged, _ := m.ReadCap(a); !tagged || e != enc {
			t.Fatalf("page a capability = %+v tagged %v", e, tagged)
		}
		if m.TagAt(b) {
			t.Fatal("page b picked up page a's tag")
		}
	}
	if m.Populated() != 2 {
		t.Fatalf("populated = %d, want 2", m.Populated())
	}
	// A read of an unpopulated page sharing the slot neither creates it
	// nor evicts a resident page's contents.
	if m.ReadUint(a+2*recentPages*PageSize, 8) != 0 || m.Populated() != 2 {
		t.Fatal("read of an unpopulated page populated it")
	}
}
