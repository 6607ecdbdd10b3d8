// Package mem implements the simulated physical memory of the Morello
// platform: byte-addressable storage with the out-of-band capability tag
// bits that CHERI requires (one tag per 16-byte granule). Tag behaviour
// follows the architecture: capability stores set the granule's tag,
// any overlapping non-capability store clears it, and capability loads
// return the tag alongside the data.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"

	"cherisim/internal/cap"
)

// PageSize is the backing-store granularity. It matches the 4 KiB
// translation granule used by the TLB model.
const PageSize = 4096

const tagsPerPage = PageSize / cap.TagGranule

type page struct {
	data [PageSize]byte
	tags [tagsPerPage]bool
}

// recentPages is the size of the direct-mapped page array in front of the
// page map: page number pn resolves through slot pn%recentPages.
const recentPages = 256

// recentPage is one slot of the direct-mapped page array.
type recentPage struct {
	pn uint64
	p  *page
}

// Shadow observes every access to a Memory after it completes, with the
// value it read or wrote. internal/check installs a lockstep reference
// model behind it; a nil shadow costs one pointer test per access and
// nothing else. Shadows must not call back into the memory beyond
// Populated.
type Shadow interface {
	ReadUint(addr, size, val uint64)
	WriteUint(addr, val, size uint64)
	ReadBytes(addr uint64, b []byte)
	WriteBytes(addr uint64, b []byte)
	ReadCap(addr uint64, e cap.Encoded, tag bool)
	WriteCap(addr uint64, e cap.Encoded, tag bool)
	TagAt(addr uint64, tag bool)
	ClearTag(addr uint64, cleared bool)
}

// Memory is a sparse simulated physical memory. The zero value is not
// usable; create one with New.
//
// The page map is the authoritative store, but accesses resolve pages
// through a direct-mapped array of recently touched pages first, so the
// hot path indexes an array instead of hashing. Pages are never removed,
// so a slot can only go stale by naming another resident page — it never
// fabricates residency.
type Memory struct {
	pages  map[uint64]*page
	recent [recentPages]recentPage
	shadow Shadow

	// BytesRead and BytesWritten accumulate raw traffic for bandwidth
	// accounting by the DRAM model.
	BytesRead    uint64
	BytesWritten uint64
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// pageFor resolves addr's page, creating it when create is set; without
// create an unpopulated page resolves to nil.
func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr / PageSize
	if r := &m.recent[pn%recentPages]; r.p != nil && r.pn == pn {
		return r.p
	}
	return m.pageSlow(pn, create)
}

// pageSlow resolves page pn through the page map and caches it in its
// direct-mapped slot.
func (m *Memory) pageSlow(pn uint64, create bool) *page {
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = &page{}
		m.pages[pn] = p
	}
	m.recent[pn%recentPages] = recentPage{pn: pn, p: p}
	return p
}

// SetShadow installs (or, with nil, removes) the memory's lockstep
// observer and returns the previous one.
func (m *Memory) SetShadow(s Shadow) Shadow {
	prev := m.shadow
	m.shadow = s
	return prev
}

// Shadowed reports whether a lockstep observer is installed.
func (m *Memory) Shadowed() bool { return m.shadow != nil }

// Populated returns the number of resident pages (footprint in pages).
func (m *Memory) Populated() int { return len(m.pages) }

// FootprintBytes returns the resident memory footprint in bytes.
func (m *Memory) FootprintBytes() uint64 { return uint64(len(m.pages)) * PageSize }

// ReadBytes copies size bytes starting at addr into a fresh slice.
// Unpopulated memory reads as zero.
func (m *Memory) ReadBytes(addr, size uint64) []byte {
	out := make([]byte, size)
	m.readInto(addr, out)
	m.BytesRead += size
	if m.shadow != nil {
		m.shadow.ReadBytes(addr, out)
	}
	return out
}

// readInto fills dst from memory starting at addr, page by page.
func (m *Memory) readInto(addr uint64, dst []byte) {
	size := uint64(len(dst))
	for i := uint64(0); i < size; {
		p := m.pageFor(addr+i, false)
		off := (addr + i) % PageSize
		n := min(PageSize-off, size-i)
		if p != nil {
			copy(dst[i:i+n], p.data[off:off+n])
		} else {
			clear(dst[i : i+n])
		}
		i += n
	}
}

// WriteBytes stores b at addr, clearing the tags of every granule the
// write overlaps (a non-capability store cannot forge tags).
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	m.writeFrom(addr, b)
	m.BytesWritten += uint64(len(b))
	if m.shadow != nil {
		m.shadow.WriteBytes(addr, b)
	}
}

// writeFrom stores b at addr page by page and clears the overlapped tags.
func (m *Memory) writeFrom(addr uint64, b []byte) {
	size := uint64(len(b))
	for i := uint64(0); i < size; {
		p := m.pageFor(addr+i, true)
		off := (addr + i) % PageSize
		n := min(PageSize-off, size-i)
		copy(p.data[off:off+n], b[i:i+n])
		i += n
	}
	m.clearTags(addr, size)
}

// ReadUint reads a little-endian unsigned integer of size 1, 2, 4 or 8.
func (m *Memory) ReadUint(addr, size uint64) uint64 {
	var v uint64
	if off := addr % PageSize; off+size <= PageSize { // within one page
		if p := m.pageFor(addr, false); p != nil {
			if size == 8 {
				v = binary.LittleEndian.Uint64(p.data[off:])
			} else {
				for i := uint64(0); i < size; i++ {
					v |= uint64(p.data[off+i]) << (8 * i)
				}
			}
		}
	} else {
		var buf [8]byte
		m.readInto(addr, buf[:size])
		v = binary.LittleEndian.Uint64(buf[:])
	}
	m.BytesRead += size
	if m.shadow != nil {
		m.shadow.ReadUint(addr, size, v)
	}
	return v
}

// WriteUint writes a little-endian unsigned integer of size 1, 2, 4 or 8.
func (m *Memory) WriteUint(addr, val, size uint64) {
	if off := addr % PageSize; off+size <= PageSize { // within one page
		p := m.pageFor(addr, true)
		if size == 8 {
			binary.LittleEndian.PutUint64(p.data[off:], val)
		} else {
			for i := uint64(0); i < size; i++ {
				p.data[off+i] = byte(val >> (8 * i))
			}
		}
		m.clearTags(addr, size)
	} else {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], val)
		m.writeFrom(addr, buf[:size])
	}
	m.BytesWritten += size
	if m.shadow != nil {
		m.shadow.WriteUint(addr, val, size)
	}
}

// tagIndex returns the page and tag-slot for a 16-byte-aligned address.
func (m *Memory) tagIndex(addr uint64, create bool) (*page, int) {
	p := m.pageFor(addr, create)
	return p, int(addr%PageSize) / cap.TagGranule
}

// clearTags invalidates every tag granule overlapped by [addr, addr+size),
// wrapping past the top of the address space as the data write does.
func (m *Memory) clearTags(addr, size uint64) {
	if size == 0 {
		return
	}
	last := (addr + size - 1) &^ (cap.TagGranule - 1)
	for a := addr &^ (cap.TagGranule - 1); ; a += cap.TagGranule {
		if p, i := m.tagIndex(a, false); p != nil {
			p.tags[i] = false
		}
		if a == last {
			return
		}
	}
}

// WriteCap stores a 16-byte capability image at a 16-byte-aligned address,
// setting or clearing the granule tag per the capability's validity. An
// aligned capability never straddles a page, so it is written in place.
func (m *Memory) WriteCap(addr uint64, e cap.Encoded, tag bool) error {
	if addr%cap.Size != 0 {
		return fmt.Errorf("mem: unaligned capability store at %#x", addr)
	}
	p, idx := m.tagIndex(addr, true)
	off := addr % PageSize
	binary.LittleEndian.PutUint64(p.data[off:], e.Addr)
	binary.LittleEndian.PutUint64(p.data[off+8:], e.Meta)
	p.tags[idx] = tag
	m.BytesWritten += cap.Size
	if m.shadow != nil {
		m.shadow.WriteCap(addr, e, tag)
	}
	return nil
}

// ReadCap loads a 16-byte capability image and its tag from a 16-byte-
// aligned address, in place and without allocating.
func (m *Memory) ReadCap(addr uint64) (cap.Encoded, bool, error) {
	if addr%cap.Size != 0 {
		return cap.Encoded{}, false, fmt.Errorf("mem: unaligned capability load at %#x", addr)
	}
	var e cap.Encoded
	var tag bool
	if p, idx := m.tagIndex(addr, false); p != nil {
		off := addr % PageSize
		e = cap.Encoded{
			Addr: binary.LittleEndian.Uint64(p.data[off:]),
			Meta: binary.LittleEndian.Uint64(p.data[off+8:]),
		}
		tag = p.tags[idx]
	}
	m.BytesRead += cap.Size
	if m.shadow != nil {
		m.shadow.ReadCap(addr, e, tag)
	}
	return e, tag, nil
}

// ClearTag invalidates the tag of the granule containing addr, leaving the
// data intact — the effect of a tag-bit upset or tag-cache line corruption
// (and of the architectural CLRTAG on an in-memory capability). It reports
// whether a set tag was actually cleared.
func (m *Memory) ClearTag(addr uint64) bool {
	p, idx := m.tagIndex(addr&^(cap.TagGranule-1), false)
	cleared := p != nil && p.tags[idx]
	if cleared {
		p.tags[idx] = false
	}
	if m.shadow != nil {
		m.shadow.ClearTag(addr, cleared)
	}
	return cleared
}

// TagAt reports the tag of the granule containing addr.
func (m *Memory) TagAt(addr uint64) bool {
	p, idx := m.tagIndex(addr&^(cap.TagGranule-1), false)
	tag := p != nil && p.tags[idx]
	if m.shadow != nil {
		m.shadow.TagAt(addr, tag)
	}
	return tag
}

// ForEachTaggedGranule invokes fn for every granule whose tag is set, in
// ascending address order. It is the revocation sweeper's scan primitive.
func (m *Memory) ForEachTaggedGranule(fn func(addr uint64)) {
	// Iterate pages in sorted order for determinism.
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	for _, pn := range pns {
		p := m.pages[pn]
		for i, tagged := range p.tags {
			if tagged {
				fn(pn*PageSize + uint64(i)*cap.TagGranule)
			}
		}
	}
}

// TaggedGranules counts set tags across memory (capability density probe,
// used by revocation-sweep style analyses).
func (m *Memory) TaggedGranules() (n uint64) {
	for _, p := range m.pages {
		for _, t := range p.tags {
			if t {
				n++
			}
		}
	}
	return n
}
